#!/usr/bin/env python3
"""Compare the gtest cases a build discovers with the committed manifest.

Every test binary (one per tests/*_test.cpp, as CMakeLists.txt builds them)
is asked for its cases with --gtest_list_tests.  The list, one
"<binary> <Suite>.<Case>" line per case, must equal tests/gtest_manifest.txt
exactly.  Cases whose suite or case name starts with DISABLED_ are counted
separately: they are listed, but they do not run.

A case that disappears, is renamed or becomes disabled therefore fails the
check until the manifest is regenerated (--write).  With --base <git ref>
the check also reads the manifest as it stood at that ref: when the new
manifest drops a case or disables one that ran there, CHANGES.md must gain
a line in the same change, saying why.

With --xml-dir DIR the check also reads what a test run reported, not only
its exit code: DIR holds one <binary>.xml per test binary, as a run with
GTEST_OUTPUT=xml:DIR/ writes them.  For every binary, the cases that passed
must equal the manifest's enabled cases, none may have failed, and the
cases that did not run (disabled or skipped) must equal its DISABLED_
cases.  A missing report (a binary that crashed, or never ran) fails too.
So does a <binary>_<N>.xml beside <binary>.xml: gtest writes that name
when <binary>.xml already exists, so DIR holds an earlier run's reports
and <binary>.xml is not this run's.  Empty DIR before each run.

Usage:
  check_test_manifest.py --build-dir build [--base REF] [--xml-dir DIR]
  check_test_manifest.py --build-dir build --write

Exit code 0 when the build matches the manifest (and, with --base, every
dropped or disabled case comes with a CHANGES.md line; with --xml-dir,
every binary's run counts match it), 1 otherwise.
"""

import argparse
import collections
import pathlib
import re
import subprocess
import sys
import xml.etree.ElementTree as ElementTree

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = "tests/gtest_manifest.txt"


def disabled(case):
    suite, _, name = case.partition(".")
    # A parameterized suite is printed as "<prefix>/<Suite>".
    return suite.split("/")[-1].startswith("DISABLED_") or name.startswith(
        "DISABLED_")


def list_cases(binary):
    out = subprocess.run([str(binary), "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    cases, suite = [], None
    for line in out.splitlines():
        if line.startswith("  ") and suite is not None:
            cases.append(suite + line.split("#")[0].strip())
        elif not line.startswith(" ") and line.endswith("."):
            suite = line
        else:
            suite = None  # a banner such as gtest_main's "Running main()"
    return cases


def discover(build_dir):
    lines = []
    for source in sorted((ROOT / "tests").glob("*_test.cpp")):
        binary = build_dir / source.stem
        if not binary.exists():
            sys.exit(f"missing test binary {binary}: build the tests first")
        lines += [f"{source.stem} {case}" for case in list_cases(binary)]
    return lines


def parse(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


def render(lines):
    off = sum(disabled(line.split(" ", 1)[1]) for line in lines)
    header = (f"# {len(lines) - off} enabled + {off} disabled gtest cases; "
              "regenerate with tools/check_test_manifest.py --write\n")
    return header + "".join(line + "\n" for line in lines)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def check_against_base(base, lines):
    try:
        old = parse(git("show", f"{base}:{MANIFEST}"))
    except subprocess.CalledProcessError:
        print(f"no manifest at {base}; nothing to compare against")
        return True
    now = set(lines)
    off_now = {line.replace("DISABLED_", ""): line for line in lines
               if disabled(line.split(" ", 1)[1])}
    gone, newly_off = [], []
    for line in old:
        if line in now:
            continue
        if line in off_now:
            newly_off.append(off_now[line])
        else:
            gone.append(line)
    if not gone and not newly_off:
        return True
    for line in gone:
        print(f"dropped since {base}: {line}")
    for line in newly_off:
        print(f"disabled since {base}: {line}")
    diff = git("diff", base, "--", "CHANGES.md").splitlines()
    added = [line for line in diff
             if line.startswith("+") and not line.startswith("+++")]
    if added:
        print("CHANGES.md gained a line in this change: accepted")
        return True
    print("dropping or disabling a case needs a CHANGES.md line saying why")
    return False


def run_counts(report):
    """(passed, failed, not run) over the testcases of one gtest XML."""
    passed = failed = not_run = 0
    for case in ElementTree.parse(report).getroot().iter("testcase"):
        if case.find("failure") is not None:
            failed += 1
        elif (case.get("status") != "run"
              or case.get("result") in ("skipped", "suppressed")):
            not_run += 1
        else:
            passed += 1
    return passed, failed, not_run


def check_counts(xml_dir, manifest):
    expected = collections.defaultdict(lambda: [0, 0])
    for line in manifest:
        binary, case = line.split(" ", 1)
        expected[binary][1 if disabled(case) else 0] += 1
    ok = True
    for binary, (enabled, off) in sorted(expected.items()):
        report = xml_dir / f"{binary}.xml"
        if not report.exists():
            print(f"{binary}: no run report {report}")
            ok = False
            continue
        later = re.compile(re.escape(binary) + r"_\d+\.xml")
        stale = sorted(path.name for path in xml_dir.iterdir()
                       if later.fullmatch(path.name))
        if stale:
            print(f"{binary}: {', '.join(stale)} beside {report.name}: the "
                  "directory holds more than one run; empty it and rerun")
            ok = False
            continue
        passed, failed, not_run = run_counts(report)
        if (passed, failed, not_run) != (enabled, 0, off):
            print(f"{binary}: {passed} passed, {failed} failed, {not_run} "
                  f"not run; the manifest expects {enabled} passed, 0 "
                  f"failed, {off} not run")
            ok = False
    runs = sum(map(sum, expected.values()))
    print(f"run reports of {len(expected)} binaries checked "
          f"({runs} cases): {'ok' if ok else 'MISMATCH'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--base", help="git ref to compare the manifest with")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the manifest from the build")
    parser.add_argument("--xml-dir", type=pathlib.Path,
                        help="gtest XML reports of a run to count")
    args = parser.parse_args()

    lines = discover(args.build_dir.resolve())
    path = ROOT / MANIFEST
    if args.write:
        path.write_text(render(lines))
        print(render(lines).splitlines()[0])
        return 0

    ok = True
    committed = parse(path.read_text()) if path.exists() else []
    if lines != committed:
        ok = False
        now, then = set(lines), set(committed)
        for line in committed:
            if line not in now:
                print(f"in the manifest, not in the build: {line}")
        for line in lines:
            if line not in then:
                print(f"in the build, not in the manifest: {line}")
        if now == then:
            print("same cases, different order: regenerate the manifest")
        print(f"update {MANIFEST} with --write")
    print(render(lines).splitlines()[0])
    if args.base and not check_against_base(args.base, lines):
        ok = False
    if args.xml_dir and not check_counts(args.xml_dir.resolve(), committed):
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
