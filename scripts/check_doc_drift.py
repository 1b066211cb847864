#!/usr/bin/env python3
"""CI docs gate, part 2: doc-drift check for the CLI flag and env tables.

docs/OPERATIONS.md documents each tool's flags in a markdown table under a
"### <tool>" heading. This script runs every tool's --help and fails if the
set of --flags in the table and the set in the live output disagree in
either direction — so adding a flag without documenting it (or documenting
a flag that no longer exists) breaks CI, not a user.

A flag counts as documented if it appears in backticks inside a table row
of the tool's section (aliases mentioned in a row's description, like
`--text` for obs_dump, count). -h shorthands are ignored: the contract is
over long options only.

The same two-way check runs over environment variables: the first column
of the "## Runtime environment variables" table must name exactly the
`getenv("PSF_...")` / `env_int("PSF_...")` literals in src/, tools/ and
bench/ (paths relative to the working directory, like --doc).

And over build-time switches: the first column of the "## Build-time
switches" table must name exactly the PSF_ macros that src/ tests in an
#if/#ifdef/#ifndef/#elif line and never #defines itself — the ones only a
compile definition can set.

Usage: check_doc_drift.py --bin-dir build/tools [--doc docs/OPERATIONS.md]
Exit status: 0 = tables match --help and the source, 1 = drift or a tool
failed to run, 2 = bad arguments / missing inputs.
"""
import argparse
import os
import re
import subprocess
import sys

TOOLS = ["obsd_query", "obs_dump", "psf_analyze", "vig_cli"]
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
ENV_DIRS = ["src", "tools", "bench"]
ENV_READ_RE = re.compile(r'\b(?:getenv|env_int)\("(PSF_[A-Z0-9_]+)"')
SOURCE_EXTS = (".cpp", ".cc", ".hpp", ".h")
SWITCH_DIRS = ["src"]
SWITCH_TEST_RE = re.compile(r"^\s*#\s*(?:if|ifdef|ifndef|elif)\b(.*)$",
                            re.MULTILINE)
SWITCH_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(PSF_[A-Z0-9_]+)",
                              re.MULTILINE)
PSF_NAME_RE = re.compile(r"\bPSF_[A-Z0-9_]+\b")


def doc_flags(doc_text, tool):
    """Flags in backticks inside table rows of the tool's ### section."""
    section = re.search(
        r"^### %s$(.*?)(?=^#{2,3} |\Z)" % re.escape(tool),
        doc_text, re.MULTILINE | re.DOTALL)
    if section is None:
        return None
    flags = set()
    for line in section.group(1).splitlines():
        if not line.lstrip().startswith("|"):
            continue
        for code in re.findall(r"`([^`]*)`", line):
            flags.update(FLAG_RE.findall(code))
    return flags


def doc_table_names(doc_text, heading):
    """Backticked PSF_ names in the first column of the table under the
    "## <heading>" section, or None when the section is missing."""
    section = re.search(r"^## %s$(.*?)(?=^## |\Z)" % re.escape(heading),
                        doc_text, re.MULTILINE | re.DOTALL)
    if section is None:
        return None
    names = set()
    for line in section.group(1).splitlines():
        cells = line.strip().split("|")
        if len(cells) > 2:
            names.update(re.findall(r"`(PSF_[A-Z0-9_]+)`", cells[1]))
    return names


def source_texts(dirs):
    for top in dirs:
        for root, _, files in os.walk(top):
            for name in files:
                if name.endswith(SOURCE_EXTS):
                    with open(os.path.join(root, name), encoding="utf-8",
                              errors="replace") as f:
                        yield f.read()


def source_env_vars(dirs):
    """PSF_ names the code reads through getenv / env_int literals."""
    names = set()
    for text in source_texts(dirs):
        names.update(ENV_READ_RE.findall(text))
    return names


def source_build_switches(dirs):
    """PSF_ macros tested by preprocessor conditionals and never #defined."""
    tested, defined = set(), set()
    for text in source_texts(dirs):
        for condition in SWITCH_TEST_RE.findall(text):
            tested.update(PSF_NAME_RE.findall(condition))
        defined.update(SWITCH_DEFINE_RE.findall(text))
    return tested - defined


def check_table(doc_text, doc_path, label, heading, dirs, in_source, verb):
    """Two-way drift check of one PSF_ name table against the source;
    returns the number of failures."""
    documented = doc_table_names(doc_text, heading)
    if documented is None:
        print("  FAIL  %s: no '## %s' section in %s" %
              (label, heading, doc_path))
        return 1
    found = in_source(dirs)
    stale = sorted(documented - found)
    undocumented = sorted(found - documented)
    if undocumented:
        print("  FAIL  %s: %s in %s but not in %s: %s" %
              (label, verb, "/".join(dirs), doc_path, ", ".join(undocumented)))
    if stale:
        print("  FAIL  %s: in %s but %s nowhere in %s: %s" %
              (label, doc_path, verb, "/".join(dirs), ", ".join(stale)))
    if undocumented or stale:
        return 1
    print("        ok  %s: %d name(s) match" % (label, len(found)))
    return 0


def help_flags(binary):
    try:
        proc = subprocess.run([binary, "--help"], capture_output=True,
                              text=True, timeout=60)
    except OSError as e:
        return None, str(e)
    if proc.returncode != 0:
        return None, "--help exited %d" % proc.returncode
    return set(FLAG_RE.findall(proc.stdout)), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the built CLI tools")
    parser.add_argument("--doc", default="docs/OPERATIONS.md")
    args = parser.parse_args()

    try:
        with open(args.doc, encoding="utf-8") as f:
            doc_text = f.read()
    except OSError as e:
        print("check_doc_drift: cannot read %s: %s" % (args.doc, e))
        return 2

    failures = 0
    for tool in TOOLS:
        documented = doc_flags(doc_text, tool)
        if documented is None:
            print("  FAIL  %s: no '### %s' section in %s" %
                  (tool, tool, args.doc))
            failures += 1
            continue
        binary = os.path.join(args.bin_dir, tool)
        live, error = help_flags(binary)
        if live is None:
            print("  FAIL  %s: %s" % (tool, error))
            failures += 1
            continue
        undocumented = sorted(live - documented)
        stale = sorted(documented - live)
        if undocumented or stale:
            failures += 1
            if undocumented:
                print("  FAIL  %s: in --help but not in %s: %s" %
                      (tool, args.doc, ", ".join(undocumented)))
            if stale:
                print("  FAIL  %s: in %s but not in --help: %s" %
                      (tool, args.doc, ", ".join(stale)))
        else:
            print("        ok  %s: %d flag(s) match" % (tool, len(live)))

    failures += check_table(doc_text, args.doc, "env",
                            "Runtime environment variables", ENV_DIRS,
                            source_env_vars, "read")
    failures += check_table(doc_text, args.doc, "switches",
                            "Build-time switches", SWITCH_DIRS,
                            source_build_switches, "tested")

    if failures:
        print("\n%d table(s) drifted from %s" % (failures, args.doc))
        return 1
    print("\nall %d flag tables match live --help output and the env and "
          "build-switch tables match the source" % len(TOOLS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
