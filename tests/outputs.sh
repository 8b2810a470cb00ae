#!/usr/bin/env bash
# Runs every command whose output is compared between Pythons and against a
# base commit, on the slval package in SRC:
#
#     bash tests/outputs.sh SRC OUT USAGE
#
# Each command's stdout goes to its own file in OUT.  The help and usage
# errors go to USAGE, stdout, stderr and exit code in one file each under
# COLUMNS=80; argparse lays help out differently on different Pythons, so
# USAGE is compared on one Python only.  The input files are written to a
# temporary directory of the script's own, removed on exit, and every
# command runs there and names its inputs relative to it, so a message that
# names a file reads the same on every run.  Two runs on different trees are
# compared with `cmp` file by file:
#
#     bash tests/outputs.sh ../base/src base-outputs base-usage
#     for f in outputs/* usage/*; do cmp "base-$f" "$f"; done
set -euo pipefail
src=$(cd "$1" && pwd)
mkdir -p "$2" "$3"
out=$(cd "$2" && pwd)
usage_dir=$(cd "$3" && pwd)
inputs=$(mktemp -d)
trap 'rm -rf "$inputs"' EXIT
cd "$inputs"
cat > p.json <<'EOF'
{"ambient_dim": 2, "field_d": 2, "vertices": [["0", "0"], ["1+1*sqrt(2)", "0"], ["1", "2-1*sqrt(2)"]]}
EOF
cat > v.json <<'EOF'
{"c0": "1", "c0p": "2", "d0": "4", "psi": {"kind": "linear", "lambda": "3"}, "phi": {"kind": "linear", "lambda": "5"}}
EOF
# the discontinuous plugin through valuate, and a psi that is no
# Cauchy solution object, which must fail to load
cat > v-rational.json <<'EOF'
{"c0": "1", "c0p": "2", "d0": "4", "psi": {"kind": "rational_part"}, "phi": {"kind": "linear", "lambda": "5/2"}}
EOF
cat > v-bare-psi.json <<'EOF'
{"c0": "1", "c0p": "2", "d0": "4", "psi": 3, "phi": {"kind": "linear", "lambda": "5"}}
EOF
# a psi whose coefficient is a surd and a phi that keeps the
# rational part: both surd-part reads of the one plugin format
cat > v-surd.json <<'EOF'
{"c0": "1", "c0p": "2", "d0": "4", "psi": {"kind": "linear", "lambda": "1+1*sqrt(2)"}, "phi": {"kind": "rational_part"}}
EOF
# a psi over Q(sqrt 3), which fit's surd simplices over Q(sqrt 2) refuse
cat > v-root-3.json <<'EOF'
{"c0": "1", "c0p": "2", "d0": "4", "psi": {"kind": "linear", "lambda": "3+1*sqrt(3)"}, "phi": {"kind": "linear", "lambda": "5"}}
EOF
# polytope files for valuate: integer clouds of 40 points in R^2, 24
# in R^3 and 20 in R^4 and a cloud of 12 points over Q(sqrt 2) in
# R^3 (distinct first coordinates, no random draw), literals
# that the integer shortcut passes on to the grammar, rational and
# surd literals that are not in lowest terms, polytopes in
# R^3 and R^4 with the origin outside (facets it sees), in a facet's
# relative interior and at a vertex other than the first row, a
# flat triangle in R^3 whose affine hull misses the origin, a
# polytope over Q(sqrt 2) in R^3 whose volume and cone term both
# have a rational and a surd part, the 9-cube, whose 9! pulling
# cells pass MAX_CELLS, three files that must fail to load, and
# 100,000 nested `[`, past the JSON decoder's recursion limit
python - . <<'EOF'
import json, os, sys
files = {
    "cloud-2.json": (2, 0, [[str(i * 17 % 41 - 20), str(i * i * 7 % 43 - 21)] for i in range(40)]),
    "cloud-3.json": (3, 0, [[str(i * 5 % 29 - 14), str(i * i % 23 - 11), str(i ** 3 % 19 - 9)]
                            for i in range(24)]),
    "cloud-4.json": (4, 0, [[str(i * 7 % 23 - 11), str(i * i % 19 - 9), str(i ** 3 % 17 - 8),
                             str(i * 11 % 13 - 6)] for i in range(20)]),
    "cloud-surd-3.json": (3, 2, [[f"{i * 5 % 13 - 6}+{i % 3}*sqrt(2)", f"{i * i % 11 - 5}-{i % 2}*sqrt(2)",
                                  f"{i ** 3 % 7 - 3}+{(i + 1) % 2}/2*sqrt(2)"] for i in range(12)]),
    "literals.json": (2, 2, [["+3", "-0"], ["007", "4/2"], ["1/2", "1+1/3*sqrt(2)"], ["-1", "1/2"]]),
    "unreduced.json": (2, 2, [["2/4", "0"], ["-6/8", "2/4+6/8*sqrt(2)"], ["3/9", "-4/6-10/15*sqrt(2)"],
                              ["10/5", "12/8+0*sqrt(2)"], ["-14/21", "8/4"]]),
    "outside-3.json": (3, 0, [["1", "1", "1"], ["3", "1", "2"], ["1", "4", "1"], ["2", "2", "5"],
                              ["4", "3", "3"], ["1", "3/2", "4"]]),
    "outside-4.json": (4, 0, [["1", "1", "1", "1"], ["3", "1", "2", "1"], ["1", "4", "1", "2"],
                              ["2", "2", "5", "1"], ["1", "2", "1", "4"], ["3", "3", "3", "3"],
                              ["-1", "2", "2", "2"]]),
    "facet-3.json": (3, 0, [["-1", "-1", "0"], ["2", "-1", "0"], ["-1", "1", "0"], ["1", "2", "0"],
                            ["0", "0", "2"], ["1", "1", "3"]]),
    "facet-4.json": (4, 0, [["-1", "-1", "-1", "0"], ["3", "-1", "-1", "0"], ["-1", "3", "-1", "0"],
                            ["-1", "-1", "3", "0"], ["0", "1", "1", "2"], ["1", "0", "1", "3"]]),
    "vertex-3.json": (3, 0, [["0", "0", "0"], ["-1", "2", "1"], ["2", "1", "1"], ["1", "-1", "2"],
                             ["1", "2", "3"], ["2", "2", "0"]]),
    "vertex-4.json": (4, 0, [["0", "0", "0", "0"], ["-1", "2", "1", "1"], ["2", "1", "1", "-1"],
                             ["1", "-1", "2", "1"], ["1", "2", "3", "1"], ["2", "2", "0", "3"]]),
    "flat-3.json": (3, 0, [["1", "0", "1"], ["0", "2", "1"], ["1", "1", "2"]]),
    "surd-3.json": (3, 2, [["1", "0", "1"], ["3", "0", "1"], ["1", "3-1*sqrt(2)", "1"],
                           ["1", "1", "2+1*sqrt(2)"], ["2", "1/2", "3"], ["1/2", "1+1*sqrt(2)", "2"]]),
    "cube-9.json": (9, 0, [[str(v >> i & 1) for i in range(9)] for v in range(512)]),
    "blank-literal.json": (2, 0, [[" 3", "0"], ["1", "1"], ["0", "0"]]),
    "number-literal.json": (2, 0, [[3, "0"], ["1", "1"], ["0", "0"]]),
    "other-field.json": (2, 2, [["1+1*sqrt(3)", "0"], ["1", "1"], ["0", "0"]]),
}
for name, (n, d, vertices) in files.items():
    with open(os.path.join(sys.argv[1], name), "w") as fh:
        json.dump({"ambient_dim": n, "field_d": d, "vertices": vertices}, fh)
with open(os.path.join(sys.argv[1], "deep.json"), "w") as fh:
    fh.write("[" * 100_000)
EOF
# an exact oracle: v.json evaluated by the slval on PYTHONPATH, which
# the oracle process inherits from the slval process that runs it
cat > oracle.py <<'EOF'
import json, sys
from slval.polytope import from_json
from slval.valuation import evaluate, from_json as valuation_from_json
with open(sys.argv[1]) as fh:
    val = valuation_from_json(json.load(fh))
for line in sys.stdin:
    if line.strip():
        print(evaluate(val, from_json(json.loads(line))))
EOF
slval() { PYTHONPATH="$src" python -c "import sys; from slval.cli import main; sys.exit(main(sys.argv[1:]))" "$@"; }
for n in 2 3 4; do
  slval verify --n $n --cases 8 --seed 3 > "$out/verify-$n.txt"
  # 20 cases reach every split residue, the slab (11-15) and
  # inclusion (16-19) modes among them
  slval verify --n $n --cases 20 --seed 3 > "$out/verify-20-$n.txt"
  slval fit --n $n --valuation v.json > "$out/fit-$n.txt"
  slval fit --n $n --cases 20 --oracle-cmd "python oracle.py v.json" > "$out/fit-oracle-$n.txt"
done
slval valuate --in p.json --valuation v.json > "$out/valuate.txt"
for name in cloud-2 cloud-3 cloud-4 cloud-surd-3 literals unreduced outside-3 outside-4 facet-3 facet-4 vertex-3 vertex-4 flat-3; do
  slval valuate --in $name.json --valuation v.json > "$out/valuate-$name.txt"
done
slval valuate --in p.json --valuation v-rational.json > "$out/valuate-rational.txt"
slval valuate --in outside-3.json --valuation v-rational.json \
  > "$out/valuate-rational-outside-3.txt"
slval valuate --in surd-3.json --valuation v.json > "$out/valuate-surd-3.txt"
for name in p surd-3; do
  slval valuate --in $name.json --valuation v-surd.json \
    > "$out/valuate-surd-plugins-$name.txt"
done
slval demo-usc --format json > "$out/demo-usc.json"
slval demo-usc > "$out/demo-usc.txt"
slval demo-usc --c0p 0 --d0 1 --steps 3 > "$out/demo-usc-origin.txt"
# `=` keeps argparse from reading -1/2 as an option
slval demo-usc --format json --c0p=-1/2 --d0 1/3 --steps 1 > "$out/demo-usc-fraction.json"
# the injected break fails its check, so exit 1 is the expected
# outcome; its witness line carries computed values
code=0
slval verify --n 2 --cases 8 --seed 3 --inject-broken --format text > "$out/verify-broken.txt" || code=$?
test "$code" -eq 1
code=0
slval verify --n 3 --cases 4 --seed 1 --inject-broken > "$out/verify-broken-3.json" || code=$?
test "$code" -eq 1
usage() {
  local name=$1 code=0
  shift
  COLUMNS=80 slval "$@" > "$usage_dir/$name.txt" 2>&1 || code=$?
  echo "exit $code" >> "$usage_dir/$name.txt"
}
usage help -h
for cmd in valuate fit verify demo-usc; do
  usage help-$cmd $cmd -h
done
usage no-command
usage unknown-command frobnicate
usage valuate-in-only valuate --in x
usage verify-extra verify --n 2 extra
usage verify-n-5 verify --n 5
usage verify-cases-0 verify --cases 0
usage fit-n-x fit --n x
usage valuate-bare-psi valuate --in p.json --valuation v-bare-psi.json
for name in blank-literal number-literal other-field; do
  usage valuate-$name valuate --in $name.json --valuation v.json
done
# too deeply nested to read, as the polytope file and as the valuation file
usage valuate-deep-polytope valuate --in deep.json --valuation v.json
usage valuate-deep-valuation valuate --in p.json --valuation deep.json
# two fields in one run: the message names the valuation's field first
usage demo-usc-two-fields demo-usc --c0p '1+1*sqrt(2)' --d0 '1+1*sqrt(3)'
usage fit-other-field fit --n 2 --cases 3 --valuation v-root-3.json
# the 9-cube is refused before any determinant; a slval without the
# cap would run for hours, so the command is cut after 20 s (exit 124)
code=0
COLUMNS=80 PYTHONPATH="$src" timeout 20 python -c \
  "import sys; from slval.cli import main; sys.exit(main(sys.argv[1:]))" \
  valuate --in cube-9.json --valuation v.json \
  > "$usage_dir/valuate-cube-9.txt" 2>&1 || code=$?
echo "exit $code" >> "$usage_dir/valuate-cube-9.txt"