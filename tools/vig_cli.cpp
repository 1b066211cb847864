// vig — the View Generator as a command-line tool (paper §4.3: "VIG can be
// used to both generate views at runtime and guide the programmer's effort
// to write correct XML files").
//
// Usage:
//   vig_cli <view.xml>          generate and print the view's Java source
//   vig_cli --check <view.xml>  validate only; print diagnostics
//   vig_cli --builtin partner|member|anonymous|cache
//                               run on one of the paper's definitions
//   vig_cli --dump-bytecode <view.xml>
//                               generate, then disassemble every compiled
//                               view method (the register bytecode the VM
//                               executes)
//
// The represented classes come from the mail application registry
// (MailClient, MailServer, Encryptor, Decryptor and their interfaces).
#include <fstream>
#include <iostream>
#include <sstream>

#include "mail/components.hpp"
#include "minilang/compile.hpp"
#include "views/codegen.hpp"
#include "views/vig.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: vig_cli <view.xml>\n"
         "       vig_cli --check <view.xml>\n"
         "       vig_cli --builtin partner|member|anonymous|cache\n"
         "       vig_cli --dump-bytecode <view.xml>\n"
         "\n"
         "The View Generator as a command-line tool: generates and prints a\n"
         "view's Java source from a Table 3(b) XML definition, against the\n"
         "mail application registry.\n"
         "\n"
         "options:\n"
         "  --help            print this help and exit 0\n"
         "  --check           validate only; print diagnostics, generate nothing\n"
         "  --builtin X       run on one of the paper's definitions\n"
         "  --dump-bytecode   generate, then disassemble every view method; a\n"
         "                    method the compiler cannot encode refuses the\n"
         "                    view (exit 1, like any other generation error)\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "vig_cli: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psf;
  if (argc < 2) return usage();

  bool check_only = false;
  bool dump_bytecode = false;
  std::string xml;
  std::string arg1 = argv[1];
  if (arg1 == "--help" || arg1 == "-h") {
    print_usage(std::cout);
    return 0;
  } else if (arg1 == "--check") {
    if (argc < 3) return usage();
    check_only = true;
    xml = read_file(argv[2]);
  } else if (arg1 == "--dump-bytecode") {
    if (argc < 3) return usage();
    dump_bytecode = true;
    xml = read_file(argv[2]);
  } else if (arg1 == "--builtin") {
    if (argc < 3) return usage();
    const std::string which = argv[2];
    if (which == "partner") {
      xml = mail::view_xml_partner();
    } else if (which == "member") {
      xml = mail::view_xml_member();
    } else if (which == "anonymous") {
      xml = mail::view_xml_anonymous();
    } else if (which == "cache") {
      xml = mail::view_xml_mail_server_cache();
    } else {
      return usage();
    }
  } else {
    xml = read_file(arg1);
  }

  auto def = views::ViewDefinition::from_xml(xml);
  if (!def.ok()) {
    std::cerr << "vig_cli: definition error: " << def.error().message << "\n";
    return 1;
  }

  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto cls = vig.generate(def.value());
  if (!cls.ok()) {
    std::cerr << "vig_cli: " << vig.diagnostics().size()
              << " error(s) in view '" << def.value().name << "':\n";
    for (const auto& diagnostic : vig.diagnostics()) {
      std::cerr << "  " << diagnostic.display() << "\n";
    }
    return 1;
  }
  if (check_only) {
    std::cout << "view '" << cls.value()->name << "' OK: "
              << cls.value()->methods.size() << " methods, "
              << cls.value()->fields.size() << " fields\n";
    return 0;
  }
  if (dump_bytecode) {
    const minilang::ClassDef& view = *cls.value();
    for (const auto& m : view.methods) {
      if (m.is_native) {
        std::cout << "; " << m.name << ": native, not compiled\n\n";
        continue;
      }
      std::cout << minilang::disassemble(
                       minilang::ensure_compiled(registry, view, m))
                << "\n";
    }
    return 0;
  }
  std::cout << views::generate_java_source(*cls.value(), registry);
  return 0;
}
