"""The two scripts run end to end on small grids and print what they did.

Each script runs in its own interpreter, as a user would start it; the
timings it prints are stripped before the lines are compared.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TIMING = re.compile(r"(\s+\[\d+\.\d+s\]| in \d+\.\d+s)$")

SWEEP = [
    "sweep: n in [2, 3], grid k/2, 3 frameworks",
    "anchored(0)       folding failures:      0",
    "anchored(1/2)     folding failures:      0",
    "anchored(1)       folding failures:      0",
    "min               folding failures:      0",
    "max               folding failures:      0",
    "hurwicz(1/2)      folding failures:    144  first: f=(0, 0, 1/2)"
    " H=[[0, 2], [1]] 1/4 vs 1/8",
    "median            folding failures:     54  first: f=(0, 1/2, 1)"
    " H=[[0, 1], [2]] 1/2 vs 0  broken properties: Range",
]

TABLES = [
    "3 lawful tables on grid k/2 (modulus 1)",
    "",
    "table 0: anchored(0)",
    "",
    "table 1: anchored(1/2)",
    "",
    "table 2: anchored(1)",
]

# without the modulus two of the five tables on k/2 are not anchored
STEEP_TABLES = [
    "5 lawful tables on grid k/2 (modulus 1000000)",
    "",
    "table 0: anchored(0)",
    "",
    "table 1: not anchored; corner value 0",
    "",
    "table 2: not anchored; corner value 1",
    "",
    "table 3: anchored(1/2)",
    "",
    "table 4: anchored(1)",
]


@pytest.mark.parametrize("script,args,expected", [
    ("sweep_rules.py",
     ["--max-states", "3", "--denominator", "2", "--anchor-denominator", "2"], SWEEP),
    ("enumerate_tables.py", ["--denominator", "2", "--quiet"], TABLES),
    ("enumerate_tables.py", ["--denominator", "2", "--lipschitz", "1000000", "--quiet"],
     STEEP_TABLES),
])
def test_script_prints_its_summary(script, args, expected):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [TIMING.sub("", line) for line in done.stdout.splitlines()] == expected


# each run prints about 200 KB, more than a pipe holds, so the script is
# still writing when its reader stops after one line
@pytest.mark.parametrize("script,args", [
    ("enumerate_tables.py", ["--denominator", "6", "--lipschitz", "1000000"]),
    ("sweep_rules.py",
     ["--max-states", "2", "--denominator", "1", "--anchor-denominator", "4000"]),
])
def test_script_exits_quietly_when_its_reader_stops(script, args):
    run = subprocess.Popen([sys.executable, str(ROOT / "scripts" / script), *args],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = run.stdout.readline()
    run.stdout.close()
    errors = run.stderr.read()
    assert run.wait(timeout=120) == 2
    assert first.strip()
    assert errors == ""


@pytest.mark.parametrize("script,args,message", [
    ("sweep_rules.py", ["--max-states", "9"], "error: sweep capped at n <= 8, asked for 9"),
    ("sweep_rules.py", ["--max-states", "1"], "error: --max-states must be >= 2, got 1"),
    ("enumerate_tables.py", ["--denominator", "0"],
     "error: grid denominator must be >= 1, got 0"),
    ("enumerate_tables.py", ["--lipschitz", "abc"],
     "error: not an exact rational literal: 'abc'"),
    ("enumerate_tables.py", ["--lipschitz", "0.5"],
     "error: not an exact rational literal: '0.5'"),
    ("sweep_rules.py", ["--alpha", "x/y"], "error: not an exact rational literal: 'x/y'"),
    ("sweep_rules.py", ["--alpha", "1/0"], "error: zero denominator: '1/0'"),
    # the tables are counted, not built, so both refusals come at once
    ("enumerate_tables.py", ["--denominator", "9", "--lipschitz", "1000000"],
     "error: 16,796 lawful tables of 55 cells on grid k/9 need 923,780 steps of work;"
     " the limit is 250,000"),
    ("enumerate_tables.py", ["--denominator", "30", "--lipschitz", "1000000"],
     "error: 14,544,636,039,226,909 lawful tables of 496 cells on grid k/30 need"
     " 7,214,139,475,456,546,864 steps of work; the limit is 250,000"),
    ("enumerate_tables.py", ["--lipschitz", "-1"],
     "error: the Lipschitz modulus must be >= 0, got -1"),
    ("sweep_rules.py", ["--max-states", "8000000"],
     "error: sweep capped at n <= 8, asked for 8000000"),
    # the sweep counts its rules' `foldback check` runs against the CLI's
    # work limit in all, before it builds a rule
    ("sweep_rules.py", ["--max-states", "5", "--denominator", "8"],
     "error: 9 rules of 3,175,050 steps each on grid k/8 need 28,575,450 steps of work;"
     " the limit is 250,000"),
    ("sweep_rules.py", ["--max-states", "5", "--denominator", "4"],
     "error: 9 rules of 172,805 steps each on grid k/4 need 1,555,245 steps of work;"
     " the limit is 250,000"),
    ("sweep_rules.py", ["--anchor-denominator", "100000000"],
     "error: 100,000,005 rules of 10,305 steps each on grid k/4 need"
     " 1,030,500,051,525 steps of work; the limit is 250,000"),
])
def test_script_reports_an_engine_error_like_the_cli(script, args, message):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [message]


# runs that overflowed the stack (k/500), counted for 41 s before their
# refusal (k/400), or went on for minutes with no table to find (a modulus
# below 1); under a modulus >= 1 the D + 1 anchored tables bound the work
# before any table is counted
@pytest.mark.parametrize("args,code,line", [
    (["--denominator", "500"], 2,
     "error: at least 501 lawful tables of 125,751 cells on grid k/500 need at least"
     " 63,001,251 steps of work; the limit is 250,000"),
    (["--denominator", "400", "--lipschitz", "1000000"], 2,
     "error: at least 401 lawful tables of 80,601 cells on grid k/400 need at least"
     " 32,321,001 steps of work; the limit is 250,000"),
    (["--denominator", "100000000"], 2,
     "error: at least 100,000,001 lawful tables of 5,000,000,150,000,001 cells on grid"
     " k/100000000 need at least 500,000,020,000,000,250,000,001 steps of work;"
     " the limit is 250,000"),
    (["--lipschitz", "0", "--denominator", "2000", "--quiet"], 0,
     "0 lawful tables on grid k/2000 (modulus 0)"),
    (["--lipschitz", "1/2", "--denominator", "600", "--quiet"], 0,
     "0 lawful tables on grid k/600 (modulus 1/2)"),
])
def test_enumerate_tables_settles_a_large_grid_within_seconds(args, code, line):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "enumerate_tables.py"),
                           *args], capture_output=True, text=True, timeout=20)
    assert done.returncode == code
    printed, silent = (done.stderr, done.stdout) if code else (done.stdout, done.stderr)
    assert [TIMING.sub("", text) for text in printed.splitlines()] == [line]
    assert silent == ""


def test_a_sweep_past_the_digit_limit_is_refused_with_one_line():
    # the run's count of steps on a grid of 3,000 digits has more digits
    # than the interpreter converts to text, so the refusal writes a power
    # of ten the count is at least
    points = 10 ** 3000
    pairs = points * (points + 1) // 2
    per_rule = (points ** 2 * 2 + points ** 3 * 5 + points ** 4 * 15
                + sum(math.comb(points, size) for size in range(1, 5)) + pairs ** 2)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_rules.py"),
                           "--denominator", str(points - 1)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    refusal = re.fullmatch(rf"error: 9 rules of 10\^([\d,]+) steps each on grid k/{points - 1}"
                           r" need 10\^([\d,]+) steps of work; the limit is 250,000", line)
    assert refusal, line
    for count, exponent in zip((per_rule, 9 * per_rule), refusal.groups()):
        exponent = int(exponent.replace(",", ""))
        assert 10 ** exponent <= count < 10 ** (exponent + 2)


# 2..8,000,000 as a list would be about 450 MB, and its header 71 MB; 10^8
# anchors would be as many rules, each with its own Fraction
@pytest.mark.parametrize("args", [["--max-states", "8000000"],
                                  ["--anchor-denominator", "100000000"],
                                  ["--max-states", "5", "--denominator", "4"]])
def test_a_refused_sweep_prints_no_header(args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_rules.py"), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1


# stdout is block-buffered unless PYTHONUNBUFFERED is set: a buffered write
# fails at the flush, and its bytes would fail again at interpreter exit
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("script,args", [
    ("sweep_rules.py", ["--max-states", "2", "--denominator", "1"]),
    ("enumerate_tables.py", ["--denominator", "2"]),
])
def test_a_script_on_a_full_stdout_exits_two_with_one_error_line(script, args, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=env)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: [Errno 28] No space left on device"]
