// The event-core workloads: sso_read, mail_write and fanout_100k.
//
// A client principal's credentials pick a VIG-generated role view through
// Guard::select_view once, at session set-up (the paper's single sign-on).
// After that every call is a sealed request on an event-core session: the
// bench handler decodes [id, method, args...], calls the session's view
// (Instance::call runs the coherence pull, the VM and the coherence push),
// and encodes [id, ok, value]. The client checks every answer against the
// oracle before the call counts as done.
//
// Sessions live on the worker that owns their account origin
// (Reactor::shard_of), so each origin is touched by one loop thread only;
// the view's rmi/switchboard stub fields point straight at that origin, so
// in-shard stubs are local calls.
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "drbac/proof_cache.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/journal.hpp"
#include "psf/guard.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/reactor.hpp"
#include "views/vig.hpp"
#include "workloads.hpp"

namespace psfbench {
namespace {

using namespace psf;
using minilang::Value;
using switchboard::EventChannel;

constexpr int kWorkers = 2;            // reactor loops; main generates load
constexpr int kClientsPerWorker = 4;   // closed-loop clients per loop
constexpr int kDirectory = 16;         // address-book entries per origin
constexpr std::size_t kOpenWindow = 64;  // sessions handshaking at once
constexpr std::uint64_t kSampleEvery = 64;  // calls kept as Chrome spans
constexpr std::size_t kListCap = 16;   // origin lists are archived here
// Open-loop rate of fanout_100k: a quarter of the 38-47k calls/s a closed
// loop of 8 clients reached on a 4-vCPU x86-64 KVM guest, so a host that
// slows down by half still does not tip the loops into backlog.
constexpr double kFanoutRatePerS = 10000;

enum class Role { kMember, kPartner, kAnonymous };
constexpr const char* kViewName[] = {"ViewMailClient_Member",
                                     "ViewMailClient_Partner",
                                     "ViewMailClient_Anonymous"};

enum class Mix { kReads, kWrites, kFanout };

struct Shape {
  int sessions;
  int origins;
  int principals;
  Mix mix;
  double offered_per_s;  // > 0: open loop at this Poisson rate
};

Shape shape_for(const std::string& workload, bool smoke) {
  if (workload == "sso_read") return {1024, 256, 512, Mix::kReads, 0};
  if (workload == "mail_write") return {1024, 256, 512, Mix::kWrites, 0};
  if (smoke) return {10000, 1024, 512, Mix::kFanout, kFanoutRatePerS / 4};
  return {100000, 4096, 512, Mix::kFanout, kFanoutRatePerS};
}

struct Contact {
  std::string name, phone, email;
};

struct Origin {
  std::string mailbox;
  int worker = 0;
  std::shared_ptr<minilang::Instance> object;
  std::vector<Contact> directory;
};

/// Server-side timings of one traced call, handed to the client callback
/// (both run on the session's loop thread, in submit order).
struct ServerTrace {
  std::uint64_t id = 0;
  std::uint64_t handler_ns = 0, codec_ns = 0, view_ns = 0;
  std::uint64_t pull_ns = 0, push_ns = 0;
  std::size_t request_bytes = 0, response_bytes = 0;
  std::vector<Span> spans;  // sampled calls only
};

struct Session {
  int worker = 0;
  int origin = 0;
  Role role = Role::kAnonymous;
  std::shared_ptr<minilang::Instance> view;
  std::shared_ptr<EventChannel> client;
  std::shared_ptr<EventChannel> server;
  std::uint64_t open_start_ns = 0;
  std::uint64_t open_ns = 0;  // written on the loop, read after set-up
  std::vector<ServerTrace> traces;  // loop thread only
  std::size_t trace_head = 0;
};

/// What one loop thread measured; written only by that thread during a
/// phase and read by main after the phase has drained.
struct WorkerStats {
  Samples call_us;  // untraced calls
  Samples t_call, t_transport, t_dispatch, t_handler, t_codec, t_exec,
      t_pull, t_push;
  std::uint64_t request_bytes = 0, response_bytes = 0;  // traced calls
  std::uint64_t attempted = 0, completed = 0, failed = 0;
  std::vector<Span> spans;
  int reported = 0;
};

struct Principals {
  std::vector<drbac::Entity> entities;
  std::vector<Role> roles;
  std::vector<int> by_role[3];
};

// Session i gets role kSessionRoles[i % 5]: the 40/40/20 mix exactly, so
// no seed serves a cheaper or dearer mix of views than another.
constexpr Role kSessionRoles[] = {Role::kMember, Role::kPartner,
                                  Role::kMember, Role::kPartner,
                                  Role::kAnonymous};

struct Call {
  std::vector<Value> request;  // [id, method, args...]
  Value expected;
  bool probe = false;
};

class Fixture {
 public:
  Fixture(const Shape& shape, const Options& options);
  ~Fixture() { reactor_.stop(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Call make_call(const Session& session, util::Rng& rng,
                 std::uint64_t id) const;
  void serve(Session& session, const util::Bytes& request,
             util::Bytes& response);
  switchboard::EventLoop& loop(int worker) { return reactor_.loop(worker); }
  std::size_t longest_origin_list() const;

  struct Worker {
    minilang::ClassRegistry registry;
    views::Vig vig{&registry};
    std::unique_ptr<switchboard::Switchboard> client_board, server_board;
    std::shared_ptr<switchboard::Connection> trunk;
    std::vector<Session*> sessions;
    std::vector<WorkerStats> slices;  // one per measured slice
  };

 private:
  // Declared first so it is destroyed last: channels post to their loop
  // while they are torn down. ~Fixture stops the loops before that.
  switchboard::Reactor reactor_{switchboard::ReactorOptions{.workers = kWorkers}};
  util::Rng rng_;
  std::shared_ptr<util::SimClock> clock_ = std::make_shared<util::SimClock>();
  switchboard::Network network_;

 public:
  const Shape shape;
  drbac::Repository repository;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<Origin> origins;
  std::vector<std::unique_ptr<Session>> sessions;
  Samples select_view_us, open_us;
  std::uint64_t setup_failures = 0;

 private:
  void build_origins(util::Rng& rng);
  void open_sessions(util::Rng& rng, bool swap_views);
  void archive_full_lists(Origin& origin);

  framework::Guard guard_;
  Principals principals_;
  std::vector<std::string> bodies_, notes_, small_notes_;
  std::atomic<std::size_t> established_{0};
};

std::string printable(util::Rng& rng, std::size_t n) {
  std::string s(n, ' ');
  for (char& c : s) c = static_cast<char>('a' + rng.next_below(26));
  return s;
}

/// Install Table 4's ACL on `guard` and create `count` principals with
/// their role credentials, exactly 40% Member and 40% Partner in seeded
/// order; the other 20% hold nothing and fall to the default row.
Principals make_principals(framework::Guard& guard, util::Rng& rng,
                           int count) {
  guard.add_access_rule("Member", kViewName[0]);
  guard.add_access_rule("Partner", kViewName[1]);
  guard.set_default_view(kViewName[2]);
  Principals out;
  out.roles.assign(static_cast<std::size_t>(count), Role::kAnonymous);
  std::fill_n(out.roles.begin(), count * 2 / 5, Role::kMember);
  std::fill_n(out.roles.begin() + count * 2 / 5, count * 2 / 5, Role::kPartner);
  for (std::size_t i = out.roles.size(); i > 1; --i) {
    std::swap(out.roles[i - 1], out.roles[rng.next_below(i)]);
  }
  for (int i = 0; i < count; ++i) {
    const Role role = out.roles[static_cast<std::size_t>(i)];
    out.entities.push_back(
        drbac::Entity::create("client-" + std::to_string(i), rng));
    out.by_role[static_cast<int>(role)].push_back(i);
    if (role != Role::kAnonymous) {
      guard.grant(drbac::Principal::of_entity(out.entities.back()),
                  role == Role::kMember ? "Member" : "Partner");
    }
  }
  return out;
}

/// Seed an origin's address book with kDirectory distinct contacts.
void fill_directory(Origin& origin, util::Rng& rng) {
  while (origin.directory.size() < kDirectory) {
    Contact c;
    c.name = "user-" + std::to_string(rng.next_below(1u << 20));
    bool duplicate = false;
    for (const Contact& other : origin.directory) {
      duplicate = duplicate || other.name == c.name;
    }
    if (duplicate) continue;
    c.phone = "555-" + std::to_string(1000 + rng.next_below(9000));
    c.email =
        c.name + "@site" + std::to_string(rng.next_below(10)) + ".example";
    origin.object->call("addAccount", {Value::string(c.name),
                                       Value::string(c.phone),
                                       Value::string(c.email)});
    origin.directory.push_back(std::move(c));
  }
}

std::vector<views::ViewDefinition> role_view_defs() {
  std::vector<views::ViewDefinition> defs;
  for (const std::string* xml :
       {&mail::view_xml_member(), &mail::view_xml_partner(),
        &mail::view_xml_anonymous()}) {
    defs.push_back(views::ViewDefinition::from_xml(*xml).value());
  }
  return defs;
}

/// Generate (or reuse) the view class and wire an instance to `origin` the
/// way the deployment infrastructure does: rmi/switchboard stub fields and
/// the coherence original both name the origin.
std::shared_ptr<minilang::Instance> make_view(
    views::Vig& vig, const views::ViewDefinition& def,
    const std::shared_ptr<minilang::Instance>& origin) {
  auto cls = vig.generate(def);
  if (!cls.ok()) throw std::runtime_error("vig: " + cls.error().message);
  auto view = minilang::instantiate(vig.registry(), cls.value()->name);
  for (const auto& [iface, binding] : cls.value()->interface_bindings) {
    if (binding != minilang::Binding::kLocal) {
      view->set_field(views::stub_field_name(iface, binding),
                      Value::object(origin));
    }
  }
  view->set_hooks(std::make_shared<TimedCacheManager>(
      views::CacheManager::Policy::kPullPush, Value::object(origin)));
  return view;
}

Fixture::Fixture(const Shape& s, const Options& options)
    : rng_(options.seed), shape(s), guard_("Comp.NY", &repository, rng_) {
  principals_ = make_principals(guard_, rng_, shape.principals);
  for (int i = 0; i < 16; ++i) {
    bodies_.push_back(printable(rng_, 1024));
    notes_.push_back(printable(rng_, 256));
    small_notes_.push_back(printable(rng_, 32));
  }

  reactor_.start();
  for (int w = 0; w < kWorkers; ++w) {
    auto worker = std::make_unique<Worker>();
    mail::register_all(worker->registry);
    const std::string suffix = std::to_string(w);
    network_.connect("client-host-" + suffix, "server-host-" + suffix,
                     {util::kMillisecond, 0, true});
    worker->client_board = std::make_unique<switchboard::Switchboard>(
        "client-host-" + suffix, &network_, clock_);
    worker->server_board = std::make_unique<switchboard::Switchboard>(
        "server-host-" + suffix, &network_, clock_);
    switchboard::AuthorizationSuite server_suite;
    server_suite.identity = drbac::Entity::create("trunk-server", rng_);
    server_suite.authorizer =
        std::make_shared<switchboard::AcceptAllAuthorizer>();
    worker->server_board->set_suite(server_suite);
    switchboard::AuthorizationSuite client_suite;
    client_suite.identity = drbac::Entity::create("trunk-client", rng_);
    client_suite.authorizer =
        std::make_shared<switchboard::AcceptAllAuthorizer>();
    auto trunk = worker->client_board->connect(*worker->server_board,
                                               client_suite, rng_);
    if (!trunk.ok()) {
      throw std::runtime_error("trunk handshake: " + trunk.error().message);
    }
    worker->trunk = trunk.value();
    workers.push_back(std::move(worker));
  }
  build_origins(rng_);
  open_sessions(rng_, options.swap_views);
}

void Fixture::build_origins(util::Rng& rng) {
  origins.resize(static_cast<std::size_t>(shape.origins));
  for (int o = 0; o < shape.origins; ++o) {
    Origin& origin = origins[static_cast<std::size_t>(o)];
    origin.mailbox = "mbox-" + std::to_string(o);
    origin.worker = static_cast<int>(reactor_.shard_of(origin.mailbox));
    origin.object = minilang::instantiate(
        workers[static_cast<std::size_t>(origin.worker)]->registry,
        "MailClient");
    fill_directory(origin, rng);
  }
}

void Fixture::open_sessions(util::Rng& rng, bool swap_views) {
  const std::vector<views::ViewDefinition> defs = role_view_defs();
  sessions.reserve(static_cast<std::size_t>(shape.sessions));
  for (int i = 0; i < shape.sessions; ++i) {
    auto session = std::make_unique<Session>();
    Session* s = session.get();
    s->origin = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(shape.origins)));
    s->role = kSessionRoles[i % 5];
    const std::vector<int>& pool =
        principals_.by_role[static_cast<int>(s->role)];
    const int principal = pool[rng.next_below(pool.size())];
    const Origin& origin = origins[static_cast<std::size_t>(s->origin)];
    s->worker = origin.worker;
    Worker& worker = *workers[static_cast<std::size_t>(s->worker)];

    // Single sign-on: the client's credentials select its view once.
    const std::uint64_t t0 = now_ns();
    auto decision = guard_.select_view(
        drbac::Principal::of_entity(
            principals_.entities[static_cast<std::size_t>(principal)]),
        0);
    select_view_us.add(static_cast<double>(now_ns() - t0) / 1000.0);
    const int expected = static_cast<int>(s->role);
    if (!decision.ok() ||
        decision.value().view_name != kViewName[expected]) {
      ++setup_failures;
    }
    int served = expected;
    if (swap_views && s->role != Role::kAnonymous) served = 1 - expected;

    s->view = make_view(worker.vig, defs[static_cast<std::size_t>(served)],
                        origin.object);

    auto pair = switchboard::make_memory_conduit_pair();
    s->server = reactor_.serve(
        s->worker, std::move(pair.b), worker.trunk,
        [this, s](const util::Bytes& request, util::Bytes& response) {
          serve(*s, request, response);
        });
    s->open_start_ns = now_ns();
    s->client = reactor_.open(s->worker, std::move(pair.a), worker.trunk,
                              static_cast<std::uint64_t>(i) + 1,
                              origin.mailbox);
    s->client->set_established_callback([this, s] {
      s->open_ns = now_ns() - s->open_start_ns;
      established_.fetch_add(1, std::memory_order_release);
    });
    worker.sessions.push_back(s);
    sessions.push_back(std::move(session));
    while (sessions.size() - established_.load(std::memory_order_acquire) >
           kOpenWindow) {
      std::this_thread::yield();
    }
  }
  const std::uint64_t deadline = now_ns() + 120'000'000'000ull;
  while (established_.load(std::memory_order_acquire) < sessions.size()) {
    if (now_ns() > deadline) throw std::runtime_error("sessions never opened");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (const auto& s : sessions) {
    open_us.add(static_cast<double>(s->open_ns) / 1000.0);
  }
}

Call Fixture::make_call(const Session& session, util::Rng& rng,
                        std::uint64_t id) const {
  enum class Op { kRead, kSend, kNote, kMeeting, kReceive, kProbe };
  const double r = rng.next_double();
  Op op = Op::kRead;
  if (r < 0.01) {
    op = Op::kProbe;  // 1% ask for a method the role's view does not offer
  } else if (shape.mix == Mix::kWrites) {
    const double u = (r - 0.01) / 0.99;
    op = u < 0.25   ? Op::kSend
         : u < 0.50 ? Op::kNote
         : u < 0.70 ? Op::kMeeting
         : u < 0.80 ? Op::kReceive
                    : Op::kRead;
  } else if (shape.mix == Mix::kFanout) {
    const double u = (r - 0.01) / 0.99;
    op = u < 0.90 ? Op::kRead : u < 0.95 ? Op::kNote : Op::kMeeting;
  }
  // Anonymous views expose AddressI only: their share of the mix is reads.
  if (session.role == Role::kAnonymous && op != Op::kProbe) op = Op::kRead;

  const Origin& origin = origins[static_cast<std::size_t>(session.origin)];
  const Contact& contact = origin.directory[rng.next_below(kDirectory)];
  const std::size_t pick = rng.next_below(16);
  Call call;
  call.request = {Value::integer(static_cast<std::int64_t>(id))};
  auto method = [&](const char* name, std::vector<Value> args) {
    call.request.push_back(Value::string(name));
    for (auto& a : args) call.request.push_back(std::move(a));
  };
  switch (op) {
    case Op::kRead:
      if (rng.next_below(2) == 0) {
        method("getPhone", {Value::string(contact.name)});
        call.expected = Value::string(contact.phone);
      } else {
        method("getEmail", {Value::string(contact.name)});
        call.expected = Value::string(contact.email);
      }
      break;
    case Op::kSend:
      method("sendMessage", {mail::make_message(origin.mailbox, contact.name,
                                                "s" + std::to_string(pick),
                                                bodies_[pick])});
      break;
    case Op::kNote:
      method("addNote", {Value::string(shape.mix == Mix::kFanout
                                           ? small_notes_[pick]
                                           : notes_[pick])});
      break;
    case Op::kMeeting:
      method("addMeeting", {Value::string(contact.name)});
      // Table 4: members book meetings, partners only request them.
      call.expected = Value::boolean(session.role == Role::kMember);
      break;
    case Op::kReceive:
      method("receiveMessages", {});
      call.expected = Value::list();
      break;
    case Op::kProbe:
      call.probe = true;
      if (session.role == Role::kMember) {
        method("findAccount", {Value::string(contact.name)});  // private
      } else if (session.role == Role::kPartner) {
        method("addAccount", {Value::string(contact.name),
                              Value::string(contact.phone),
                              Value::string(contact.email)});  // absent
      } else {
        method("addNote", {Value::string(small_notes_[pick])});  // absent
      }
      break;
  }
  return call;
}

void Fixture::serve(Session& session, const util::Bytes& request,
                    util::Bytes& response) {
  const std::uint64_t h0 = now_ns();
  auto decoded = minilang::decode_values(request);
  if (!decoded.ok() || decoded.value().size() < 2 ||
      !decoded.value()[0].is_int() || !decoded.value()[1].is_string()) {
    minilang::encode_values_into(
        {Value::integer(0), Value::boolean(false), Value::string("bad request")},
        response);
    return;
  }
  std::vector<Value>& values = decoded.value();
  const auto id = static_cast<std::uint64_t>(values[0].as_int());
  const bool traced = (id & 1) != 0;
  const std::uint64_t d1 = traced ? now_ns() : 0;  // decode done
  const std::string method = values[1].as_string();
  std::vector<Value> args(std::make_move_iterator(values.begin() + 2),
                          std::make_move_iterator(values.end()));
  thread_local BracketFrame frame;
  if (traced) {
    frame.call = id >> 1;
    frame.sampled = frame.call % kSampleEvery == 0;
    frame.pull_ns = frame.push_ns = 0;
    frame.spans.clear();
    current_frame() = &frame;
  }
  const std::uint64_t v0 = now_ns();
  Value result;
  bool ok = true;
  try {
    result = session.view->call(method, std::move(args));
  } catch (const std::exception& e) {
    ok = false;
    result = Value::string(e.what());
  }
  const std::uint64_t v1 = now_ns();
  current_frame() = nullptr;
  minilang::encode_values_into(
      {Value::integer(static_cast<std::int64_t>(id)), Value::boolean(ok),
       std::move(result)},
      response);
  const std::uint64_t h1 = now_ns();
  if (traced) {
    ServerTrace t;
    t.id = id;
    t.handler_ns = h1 - h0;
    t.codec_ns = (d1 - h0) + (h1 - v1);
    t.view_ns = v1 - v0;
    t.pull_ns = frame.pull_ns;
    t.push_ns = frame.push_ns;
    t.request_bytes = request.size();
    t.response_bytes = response.size();
    if (frame.sampled) {
      t.spans = std::move(frame.spans);
      t.spans.push_back({"handler", "call", frame.call, h0, h1});
      t.spans.push_back({"codec", "handler", frame.call, h0, d1});
      t.spans.push_back({"view.call", "handler", frame.call, v0, v1});
      t.spans.push_back({"codec", "handler", frame.call, v1, h1});
    }
    session.traces.push_back(std::move(t));
  }
  if (ok && shape.mix != Mix::kReads) {
    archive_full_lists(origins[static_cast<std::size_t>(session.origin)]);
  }
}

/// Mailbox archival: an origin list that reaches kListCap entries is
/// replaced by an empty one, so a time-boxed run meets the same per-call
/// state size however many calls it completes.
void Fixture::archive_full_lists(Origin& origin) {
  for (const char* field : {"outbox", "notes", "meetings"}) {
    const Value list = origin.object->get_field(field);
    if (list.is_list() && list.as_list()->size() >= kListCap) {
      origin.object->set_field(field, Value::list());
    }
  }
}

std::size_t Fixture::longest_origin_list() const {
  std::size_t longest = 0;
  for (const Origin& origin : origins) {
    for (const char* field : {"outbox", "notes", "meetings"}) {
      const Value list = origin.object->get_field(field);
      if (list.is_list()) longest = std::max(longest, list.as_list()->size());
    }
  }
  return longest;
}

bool verify(const util::Result<util::Bytes>& response, std::uint64_t id,
            const Value& expected, bool probe) {
  if (!response.ok()) return false;
  auto decoded = minilang::decode_values(response.value());
  if (!decoded.ok() || decoded.value().size() != 3) return false;
  const auto& v = decoded.value();
  if (!v[0].is_int() || static_cast<std::uint64_t>(v[0].as_int()) != id ||
      !v[1].is_bool()) {
    return false;
  }
  if (probe) return !v[1].as_bool();
  return v[1].as_bool() && v[2].equals(expected);
}

/// Fold one completed call into its worker's numbers. Runs on the loop.
void record(WorkerStats& stats, Session& session, std::uint64_t id,
            bool good, bool probe, std::uint64_t start_ns,
            std::uint64_t end_ns) {
  ++stats.completed;
  if (!good) {
    ++stats.failed;
    if (stats.reported++ < 3) {
      std::cerr << "psfbench: wrong answer for call " << (id >> 1)
                << " on a " << kViewName[static_cast<int>(session.role)]
                << " session\n";
    }
  }
  const bool traced = (id & 1) != 0;
  ServerTrace trace;
  if (traced) {
    if (session.trace_head < session.traces.size() &&
        session.traces[session.trace_head].id == id) {
      trace = std::move(session.traces[session.trace_head++]);
      if (session.trace_head == session.traces.size()) {
        session.traces.clear();
        session.trace_head = 0;
      }
    } else {
      ++stats.failed;  // the response overtook its own request
      return;
    }
  }
  if (probe) return;
  const double call_us = static_cast<double>(end_ns - start_ns) / 1000.0;
  if (!traced) {
    stats.call_us.add(call_us);
    return;
  }
  auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  stats.t_call.add(call_us);
  stats.t_transport.add(call_us - us(trace.handler_ns));
  stats.t_handler.add(us(trace.handler_ns));
  stats.t_dispatch.add(
      us(trace.handler_ns - trace.codec_ns - trace.view_ns));
  stats.t_codec.add(us(trace.codec_ns));
  stats.t_exec.add(us(trace.view_ns - trace.pull_ns - trace.push_ns));
  stats.t_pull.add(us(trace.pull_ns));
  stats.t_push.add(us(trace.push_ns));
  stats.request_bytes += trace.request_bytes;
  stats.response_bytes += trace.response_bytes;
  if (!trace.spans.empty()) {
    stats.spans.push_back({"call", nullptr, id >> 1, start_ns, end_ns});
    stats.spans.insert(stats.spans.end(), trace.spans.begin(),
                       trace.spans.end());
  }
}

// ------------------------------------------------------------ closed loop

struct Phase {
  std::uint64_t deadline_ns = 0;
  std::size_t slice = 0;
  bool traced = false;
  bool measured = false;
  // Clients still running. Main polls it rather than waiting on a promise:
  // the last client's decrement is then its last touch of the phase, and
  // main may destroy the phase as soon as it reads 0.
  std::atomic<int> active{0};
};

/// One closed-loop client: it sends its next call from the previous call's
/// completion, on its own loop thread, to a random session of that loop.
struct Client {
  Fixture* fixture = nullptr;
  int worker = 0;
  std::uint64_t index = 0;
  util::Rng rng;
  Phase* phase = nullptr;
  std::uint64_t seq = 0;
  std::uint64_t stopped_ns = 0;  // when this client left the phase
};

void issue(Client& c) {
  Phase& phase = *c.phase;
  const std::uint64_t now = now_ns();
  if (now >= phase.deadline_ns) {
    c.stopped_ns = now;
    phase.active.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  Fixture::Worker& worker =
      *c.fixture->workers[static_cast<std::size_t>(c.worker)];
  Session& session =
      *worker.sessions[c.rng.next_below(worker.sessions.size())];
  const std::uint64_t id =
      (((c.index << 40) | c.seq++) << 1) | (phase.traced ? 1 : 0);
  Call call = c.fixture->make_call(session, c.rng, id);
  util::Bytes request = minilang::encode_values(call.request);
  if (phase.measured) ++worker.slices[phase.slice].attempted;
  const std::uint64_t start = now_ns();
  session.client->submit(
      std::move(request),
      [&c, &session, &worker, id, start, expected = std::move(call.expected),
       probe = call.probe](util::Result<util::Bytes> response) {
        const bool good = verify(response, id, expected, probe);
        const std::uint64_t end = now_ns();
        if (c.phase->measured) {
          record(worker.slices[c.phase->slice], session, id, good, probe,
                 start, end);
        }
        issue(c);
      });
}

/// Run every client for `seconds`, then let the in-flight calls drain;
/// returns wall seconds until the last client stopped.
double run_closed(Fixture& fx, std::vector<Client>& clients, double seconds,
                  bool traced, bool measured, std::size_t slice) {
  Phase phase;
  phase.slice = slice;
  phase.traced = traced;
  phase.measured = measured;
  phase.active.store(static_cast<int>(clients.size()));
  const std::uint64_t start = now_ns();
  phase.deadline_ns = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (Client& c : clients) {
    c.phase = &phase;
    fx.loop(c.worker).post([client = &c] { issue(*client); });
  }
  while (phase.active.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t end = start;
  for (const Client& c : clients) end = std::max(end, c.stopped_ns);
  return static_cast<double>(end - start) / 1e9;
}

/// Slices of the measured window: one second each, or an ABBA pattern of
/// untraced and traced slices in a traced run.
std::size_t slice_count(double seconds, bool trace) {
  return trace ? static_cast<std::size_t>(trace_slices(seconds))
               : static_cast<std::size_t>(std::max(1L, std::lround(seconds)));
}

std::vector<Slice> measure_closed(Fixture& fx, std::vector<Client>& clients,
                                  double seconds, bool trace) {
  std::vector<Slice> slices(slice_count(seconds, trace));
  for (auto& worker : fx.workers) worker->slices.assign(slices.size(), {});
  for (std::size_t i = 0; i < slices.size(); ++i) {
    slices[i].traced = trace && traced_slice(i);
    const double cpu0 = cpu_seconds();
    slices[i].seconds =
        run_closed(fx, clients, seconds / static_cast<double>(slices.size()),
                   slices[i].traced, true, i);
    slices[i].cpu_seconds = cpu_seconds() - cpu0;
  }
  return slices;
}

// -------------------------------------------------------------- open loop

/// Poisson arrivals from the main thread at a fixed rate, each to a
/// uniformly random session; latency runs from the scheduled send time.
class OpenLoop {
 public:
  OpenLoop(Fixture& fx, std::uint64_t seed) : fx_(fx), rng_(seed) {}

  /// Offer load for `seconds`, split into slices by scheduled send time.
  /// A slice's CPU leaves out the generator's own thread: it is the CPU
  /// spent serving the calls.
  std::vector<Slice> run(double rate, double seconds, bool trace,
                         bool measured) {
    auto serving_cpu = [] { return cpu_seconds() - thread_cpu_seconds(); };
    std::vector<Slice> slices(slice_count(seconds, trace));
    if (measured) {
      for (auto& worker : fx_.workers) worker->slices.assign(slices.size(), {});
    }
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const double slice_ns = seconds * 1e9 / static_cast<double>(slices.size());
    std::uint64_t issued = 0;
    std::size_t current = 0;
    double cpu_mark = serving_cpu();
    double t = static_cast<double>(start);
    for (;;) {
      t += -std::log(1.0 - rng_.next_double()) / rate * 1e9;
      const auto due = static_cast<std::uint64_t>(t);
      if (due >= end) break;
      const auto slice = std::min<std::size_t>(
          slices.size() - 1,
          static_cast<std::size_t>(static_cast<double>(due - start) / slice_ns));
      while (current < slice) {  // close the CPU account of finished slices
        const double cpu = serving_cpu();
        slices[current++].cpu_seconds = cpu - cpu_mark;
        cpu_mark = cpu;
      }
      const bool traced = trace && traced_slice(slice);
      Session& session =
          *fx_.sessions[rng_.next_below(fx_.sessions.size())];
      const std::uint64_t id = (seq_++ << 1) | (traced ? 1 : 0);
      Call call = fx_.make_call(session, rng_, id);
      util::Bytes request = minilang::encode_values(call.request);
      std::uint64_t now = now_ns();
      while (now < due) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 100'000));
        }
        now = now_ns();
      }
      if (measured) late_us.add(static_cast<double>(now - due) / 1000.0);
      ++issued;
      Fixture::Worker& worker =
          *fx_.workers[static_cast<std::size_t>(session.worker)];
      session.client->submit(
          std::move(request),
          [this, &session, &worker, id, due, measured, slice,
           expected = std::move(call.expected),
           probe = call.probe](util::Result<util::Bytes> response) {
            const bool good = verify(response, id, expected, probe);
            const std::uint64_t done = now_ns();
            if (measured) {
              record(worker.slices[slice], session, id, good, probe, due,
                     done);
            }
            completed_.fetch_add(1, std::memory_order_release);
          });
    }
    const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
    while (completed_.load(std::memory_order_acquire) < issued &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (current < slices.size()) {
      const double cpu = serving_cpu();
      slices[current++].cpu_seconds = cpu - cpu_mark;
      cpu_mark = cpu;
    }
    for (std::size_t i = 0; i < slices.size(); ++i) {
      slices[i].traced = trace && traced_slice(i);
      slices[i].seconds = slice_ns / 1e9;
    }
    if (measured) {
      attempted += issued;
      missing += issued - completed_.load(std::memory_order_acquire);
    }
    completed_.store(0);
    return slices;
  }

  Samples late_us;
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;

 private:
  Fixture& fx_;
  util::Rng rng_;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> completed_{0};
};

// ------------------------------------------------------------------ report

void merge(WorkerStats& into, const WorkerStats& from) {
  into.call_us.append(from.call_us);
  for (auto [a, b] :
       {std::pair{&into.t_call, &from.t_call},
        {&into.t_transport, &from.t_transport},
        {&into.t_dispatch, &from.t_dispatch},
        {&into.t_handler, &from.t_handler}, {&into.t_codec, &from.t_codec},
        {&into.t_exec, &from.t_exec},
        {&into.t_pull, &from.t_pull}, {&into.t_push, &from.t_push}}) {
    a->append(*b);
  }
  into.request_bytes += from.request_bytes;
  into.response_bytes += from.response_bytes;
  into.attempted += from.attempted;
  into.completed += from.completed;
  into.failed += from.failed;
}

}  // namespace

bool is_event_core_workload(const std::string& name) {
  return name == "sso_read" || name == "mail_write" || name == "fanout_100k";
}

RunResult run_event_core(const Options& options) {
  const Shape shape = shape_for(options.workload, options.smoke);
  RunResult result;
  Report& report = result.report;

  // Keep the last of several set-ups; each starts with a cold signature
  // cache, as a fresh process would.
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<ObsWindow> setup_window;
  repeat_setup(options, report, [&] {
    fx.reset();
    drbac::SignatureCache::instance().clear();
    setup_window = std::make_unique<ObsWindow>();
    fx = std::make_unique<Fixture>(shape, options);
  });
  const bool open_loop = shape.offered_per_s > 0;
  std::cout << "psfbench " << options.workload << ": " << shape.sessions
            << " sessions over " << shape.origins << " origins, "
            << (open_loop ? "open loop at " +
                                std::to_string(static_cast<long>(
                                    shape.offered_per_s)) +
                                " calls/s"
                          : "closed loop of " +
                                std::to_string(kWorkers * kClientsPerWorker) +
                                " clients")
            << ", " << kWorkers << " loops, seed " << options.seed << "\n";

  const double warmup = options.smoke ? 0.2 : 1.0;
  std::vector<Client> clients(kWorkers * kClientsPerWorker);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].fixture = fx.get();
    clients[i].worker = static_cast<int>(i % kWorkers);
    clients[i].index = i;
    clients[i].rng = util::Rng(options.seed * 1000003 + i);
  }
  OpenLoop open(*fx, options.seed * 7919 + 17);
  if (open_loop) {
    open.run(shape.offered_per_s, warmup, false, false);
  } else {
    run_closed(*fx, clients, warmup, false, false, 0);
  }

  const ObsWindow window;
  const std::uint64_t journal0 = obs::journal::emitted();
  const std::uint64_t hard0 = obs::journal::hard_dropped();
  std::vector<Slice> slices =
      open_loop ? open.run(shape.offered_per_s, options.seconds,
                           options.trace, true)
                : measure_closed(*fx, clients, options.seconds, options.trace);

  WorkerStats all;
  double traced_rate[2] = {0, 0};  // calls/s over untraced, traced slices
  double traced_seconds[2] = {0, 0};
  for (std::size_t i = 0; i < slices.size(); ++i) {
    WorkerStats slice;
    for (const auto& worker : fx->workers) merge(slice, worker->slices[i]);
    slices[i].calls = slices[i].cpu_ops = slice.completed;
    slices[i].call_us = slice.call_us;
    traced_rate[slices[i].traced] += static_cast<double>(slice.completed);
    traced_seconds[slices[i].traced] += slices[i].seconds;
    merge(all, slice);
  }
  if (open_loop) all.attempted = open.attempted;
  result.attempted = all.attempted + static_cast<std::uint64_t>(shape.sessions);
  result.failed = all.failed + open.missing + fx->setup_failures;
  const double ops = static_cast<double>(all.completed);

  report_slices(report, slices);
  report.set("peak_rss_mb", peak_rss_mb(), 1);

  // Per layer: program counters over the measured window.
  report_program_counters(report, window, all.completed, 0);
  report.set("switchboard.bytes_per_call",
             ratio(static_cast<double>(
                       window.counter("psf.switchboard.session.bytes")),
                   ops),
             all.completed);
  const auto batch = window.histogram("psf.switchboard.loop.batch_frames");
  report.set("switchboard.frames_per_batch",
             ratio(static_cast<double>(batch.sum),
                   static_cast<double>(batch.count)),
             batch.count);
  double phases = 0;
  for (const char* phase : {"psf.loop.poll_wait_us", "psf.loop.fd_dispatch_us",
                            "psf.loop.task_run_us", "psf.loop.timer_fire_us"}) {
    phases += static_cast<double>(window.histogram(phase).sum);
  }
  const auto poll = window.histogram("psf.loop.poll_wait_us");
  report.set("switchboard.loop_busy_frac",
             1.0 - ratio(static_cast<double>(poll.sum), phases), poll.count);
  const auto sojourn = window.histogram("psf.loop.task_sojourn_us");
  report.set("switchboard.loop_lag_p99_us",
             static_cast<double>(sojourn.percentile(99)), sojourn.count);
  report.set("switchboard.session_open_p50_us", fx->open_us.percentile(50),
             fx->open_us.size());
  const auto handshake =
      setup_window->histogram("psf.switchboard.handshake_us");
  report.set("switchboard.handshake_p50_us",
             static_cast<double>(handshake.percentile(50)), handshake.count);
  const double vig_hits =
      static_cast<double>(setup_window->counter("psf.views.vig.cache_hits"));
  const double vig_generated =
      static_cast<double>(setup_window->counter("psf.views.vig.generated"));
  report.set("views.vig_cache_hit_frac",
             ratio(vig_hits, vig_hits + vig_generated),
             static_cast<std::uint64_t>(vig_hits + vig_generated));
  report.set("views.origin_list_len_end",
             static_cast<double>(fx->longest_origin_list()),
             fx->origins.size());
  report.set("psf.select_view_p50_us", fx->select_view_us.percentile(50),
             fx->select_view_us.size());
  report.set("drbac.repo_credentials_end",
             static_cast<double>(fx->repository.size()), 1);
  report.set("obs.journal_events_per_op",
             ratio(static_cast<double>(obs::journal::emitted() - journal0),
                   ops),
             all.completed);
  report.set("obs.journal_hard_drops",
             static_cast<double>(obs::journal::hard_dropped() - hard0), 1);
  report.set("bench.gen_late_p99_us", open.late_us.percentile(99),
             open.late_us.size());
  report.set("bench.failed_frac",
             ratio(static_cast<double>(result.failed),
                   static_cast<double>(result.attempted)),
             result.attempted);

  if (options.trace) {
    const std::uint64_t n = all.t_call.size();
    report.set("switchboard.transport_p50_us", all.t_transport.percentile(50), n);
    report.set("switchboard.transport_p99_us", all.t_transport.percentile(99), n);
    report.set("dispatch.handler_p50_us", all.t_handler.percentile(50), n);
    report.set("dispatch.handler_p99_us", all.t_handler.percentile(99), n);
    report.set("minilang.codec_p50_us", all.t_codec.percentile(50), n);
    report.set("minilang.exec_p50_us", all.t_exec.percentile(50), n);
    report.set("views.pull_p50_us", all.t_pull.percentile(50), n);
    report.set("views.pull_p99_us", all.t_pull.percentile(99), n);
    report.set("views.push_p50_us", all.t_push.percentile(50), n);
    report.set("views.push_p99_us", all.t_push.percentile(99), n);
    // Mean sizes: a read mix is half phones, half e-mail addresses, so a
    // median would flip between the two from run to run.
    const auto request_bytes = static_cast<std::size_t>(std::lround(
        ratio(static_cast<double>(all.request_bytes), static_cast<double>(n))));
    const auto response_bytes = static_cast<std::size_t>(std::lround(
        ratio(static_cast<double>(all.response_bytes), static_cast<double>(n))));
    constexpr int kSealIterations = 20000;
    report.set("crypto.seal_unseal_p50_ns",
               seal_unseal_p50_ns(request_bytes, response_bytes, options.seed,
                                  kSealIterations),
               kSealIterations);
    // Closed loops compare throughput; the open loop's throughput is its
    // offered rate, so it compares p50 latency instead.
    const double untraced_p50 = all.call_us.percentile(50);
    const double untraced_rate = ratio(traced_rate[0], traced_seconds[0]);
    report.set("bench.trace_overhead_pct",
               open_loop
                   ? 100.0 * ratio(all.t_call.percentile(50) - untraced_p50,
                                   untraced_p50)
                   : 100.0 * ratio(untraced_rate -
                                       ratio(traced_rate[1], traced_seconds[1]),
                                   untraced_rate),
               n);
    std::cout << "mean plaintext: request " << request_bytes
              << " B, response " << response_bytes << " B\n";
    const double residual = print_ledger(
        std::cout, all.t_call,
        {{"transport", &all.t_transport}, {"dispatch", &all.t_dispatch},
         {"codec", &all.t_codec}, {"exec", &all.t_exec},
         {"coherence.pull", &all.t_pull}, {"coherence.push", &all.t_push}});
    report.set("bench.ledger_residual_frac", residual, n);
    if (!options.trace_out.empty()) {
      SpanLog log(fx->workers.size());
      for (std::size_t w = 0; w < fx->workers.size(); ++w) {
        for (const WorkerStats& slice : fx->workers[w]->slices) {
          for (const Span& span : slice.spans) log.add(w, span);
        }
      }
      if (!log.write_chrome(options.trace_out)) {
        std::cerr << "psfbench: cannot write " << options.trace_out << "\n";
      }
    }
  }
  return result;
}

void run_select_view_layer(const Options& options, Report& report) {
  // The fixture's first draws: the Guard's key, then the principals.
  util::Rng rng(options.seed);
  drbac::Repository repository;
  framework::Guard guard("Comp.NY", &repository, rng);
  const Principals principals = make_principals(guard, rng, 512);
  drbac::SignatureCache::instance().clear();
  std::uint64_t wrong = 0;
  for (const char* pass : {"cold", "warm"}) {
    Samples us;
    for (std::size_t i = 0; i < principals.entities.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      auto decision = guard.select_view(
          drbac::Principal::of_entity(principals.entities[i]), 0);
      us.add(static_cast<double>(now_ns() - t0) / 1000.0);
      if (!decision.ok() ||
          decision.value().view_name !=
              kViewName[static_cast<int>(principals.roles[i])]) {
        ++wrong;
      }
    }
    const std::string prefix = std::string("select_view.") + pass;
    report.set(prefix + "_p50_us", us.percentile(50), us.size(), "us");
    report.set(prefix + "_p99_us", us.percentile(99), us.size(), "us");
  }
  report.set("select_view.wrong_views", static_cast<double>(wrong),
             2 * principals.entities.size(), "count");
}

void run_view_call_layer(const Options& options, Report& report) {
  util::Rng rng(options.seed);
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  Origin origin;
  origin.mailbox = "mbox-0";
  origin.object = minilang::instantiate(registry, "MailClient");
  fill_directory(origin, rng);
  const std::vector<views::ViewDefinition> defs = role_view_defs();
  constexpr int kCalls = 50000;
  constexpr const char* kRoleName[] = {"member", "partner", "anonymous"};
  BracketFrame frame;
  std::uint64_t wrong = 0;
  for (std::size_t role = 0; role < defs.size(); ++role) {
    auto view = make_view(vig, defs[role], origin.object);
    Samples call_us, pull_us, push_us, exec_us;
    for (int i = -kCalls / 10; i < kCalls; ++i) {  // first tenth warms up
      const Contact& contact = origin.directory[rng.next_below(kDirectory)];
      frame.pull_ns = frame.push_ns = 0;
      current_frame() = &frame;
      const std::uint64_t t0 = now_ns();
      const Value phone = view->call("getPhone", {Value::string(contact.name)});
      const std::uint64_t ns = now_ns() - t0;
      current_frame() = nullptr;
      if (!phone.equals(Value::string(contact.phone))) ++wrong;
      if (i < 0) continue;
      call_us.add(static_cast<double>(ns) / 1000.0);
      pull_us.add(static_cast<double>(frame.pull_ns) / 1000.0);
      push_us.add(static_cast<double>(frame.push_ns) / 1000.0);
      exec_us.add(static_cast<double>(ns - frame.pull_ns - frame.push_ns) /
                  1000.0);
    }
    const std::string prefix = std::string("view_call.") + kRoleName[role];
    report.set(prefix + ".call_p50_us", call_us.percentile(50), kCalls, "us");
    report.set(prefix + ".pull_p50_us", pull_us.percentile(50), kCalls, "us");
    report.set(prefix + ".push_p50_us", push_us.percentile(50), kCalls, "us");
    report.set(prefix + ".exec_p50_us", exec_us.percentile(50), kCalls, "us");
  }
  report.set("view_call.wrong_answers", static_cast<double>(wrong),
             3 * kCalls, "count");
}

}  // namespace psfbench
