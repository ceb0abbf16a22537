#!/usr/bin/env python3
"""Table-driven rejection test for the `synergy` CLI.

Every subcommand's `--help` is generated from its flag table, so the help
is the dictionary: for each value-taking flag it lists, feed a fixed set of
junk values and require a usage error (exit 2) whose stderr names the flag,
never a signal. File-valued flags (metavar FILE) are skipped.

Each invocation runs with `--reps 1 --duration 1` first where the
subcommand takes them, never sets `--jobs` above 1 and has a timeout, so a
junk value that is wrongly accepted runs one tiny mission, not a campaign.

Run: python3 tests/cli_rejects_junk.py path/to/synergy
"""

import subprocess
import sys

COMMANDS = ["run", "sweep", "rollback", "model", "chaos", "general"]
JUNK = ["", "abc", "-1", "nan", "1e400", "1,,2"]
TIMEOUT_S = 60
# A flag row: two spaces, "--name META" within the next 19 columns, then
# its help from column 22.
LEAD = slice(2, 21)


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def flag_rows(synergy, command):
    """{flag: metavar or None} as `synergy COMMAND --help` lists them."""
    out = run([synergy, command, "--help"])
    if out.returncode != 0:
        sys.exit(f"FAIL: {command} --help exited {out.returncode}")
    rows = {}
    for line in out.stdout.splitlines():
        if line.startswith("  --"):
            parts = line[LEAD].split()
            rows[parts[0]] = parts[1] if len(parts) > 1 else None
    if not rows:
        sys.exit(f"FAIL: {command} --help lists no flags")
    return rows


def main():
    synergy = sys.argv[1]
    failures = []
    checked = 0
    if run([synergy, "help"]).returncode != 0:
        failures.append("synergy help did not exit 0")
    for command in COMMANDS:
        rows = flag_rows(synergy, command)
        prefix = []
        for flag in ("--reps", "--duration"):
            if flag in rows:
                prefix += [flag, "1"]
        for flag, meta in sorted(rows.items()):
            if meta is None or meta.startswith("FILE"):
                continue
            for junk in JUNK:
                argv = [synergy, command] + prefix + [flag, junk]
                out = run(argv)
                checked += 1
                shown = " ".join(repr(a) for a in argv[1:])
                if out.returncode < 0:
                    failures.append(f"{shown}: killed by signal "
                                    f"{-out.returncode}")
                elif out.returncode != 2:
                    failures.append(f"{shown}: exit {out.returncode}, "
                                    "expected 2")
                elif flag not in out.stderr:
                    failures.append(f"{shown}: stderr does not name "
                                    f"{flag}: {out.stderr.strip()!r}")
    for f in failures:
        print("FAIL:", f)
    print(f"{checked} junk values checked, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
