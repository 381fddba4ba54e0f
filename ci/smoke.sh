#!/usr/bin/env bash
# CLI smoke test: run, verify and attack through `python -m rbc.cli`, the
# pinned m=10, R=6 and coprime-denominator bytes, and exit 1 on each
# refused input.  It works in a fresh temporary directory, so it writes
# nothing into the checkout.
# Run it from anywhere with `bash -e ci/smoke.sh`; tests/test_smoke.py
# runs it as part of the Tier-1 suite.
set -euo pipefail
export PYTHONPATH="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/src"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
python -m rbc.cli run --m 3 --rounds 3 --bit 1 --alice-seed 7 --bob-seed 9 --out t.json
python -m rbc.cli verify t.json | tee verdict.json
python -c 'import json, sys; v = json.load(open("verdict.json")); sys.exit(0 if v["outcome"] == "accept" and v["bit"] == 1 else 1)'
# the exact oracle keeps its pinned value on every Python
python -m rbc.cli attack --m 2 --rounds 3 --strategy offset-guess --trials 2000 --seed 5 | tee attack.json
python -c 'import json, sys; sys.exit(0 if json.load(open("attack.json"))["oracle_rate_exact"] == "427/2187" else 1)'
# identical flags write identical bytes
python -m rbc.cli run --m 3 --rounds 3 --bit 1 --alice-seed 7 --bob-seed 9 --out again.json
cmp t.json again.json
# the m=10, R=6 reference run keeps its pinned bytes and accepts bit 1
timeout 60 python -m rbc.cli run --m 10 --rounds 6 --bit 1 --alice-seed 1998 --bob-seed 9810068 --out m10r6.json
echo "34e771603b3cbb2a1dfb2539ae19412e57c98548eb243a41dc08c25434ee73c3  m10r6.json" | sha256sum -c -
python -m rbc.cli verify m10r6.json | python -c 'import json, sys; v = json.load(sys.stdin); sys.exit(0 if v["outcome"] == "accept" and v["bit"] == 1 else 1)'
# a geometry whose four denominators share no factor, given as p/q flags,
# keeps its pinned bytes and accepts bit 1
python -m rbc.cli run --m 3 --rounds 3 --bit 1 --alice-seed 7 --bob-seed 9 --dx 7/3 --delta 1/97 --dt 1/31 --intra-delay 1/101 --out coprime.json
echo "cd48bb7f68f7e613123e88e008452bb37d261124e6d02a472281b8b452fa4a1f  coprime.json" | sha256sum -c -
python -m rbc.cli verify coprime.json | python -c 'import json, sys; v = json.load(sys.stdin); sys.exit(0 if v["outcome"] == "accept" and v["bit"] == 1 else 1)'
# the exact oracle is attached at m=16, R=3, inside its 2^20-bit size bound
timeout 60 python -m rbc.cli attack --m 16 --rounds 3 --strategy offset-guess --trials 1 --seed 1 | python -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["oracle_rate_exact"] is not None else 1)'
# numeric flags whose exact value would be costly to build are refused with exit 1, not a hang
for flags in "run --m 2 --rounds 1 --bit 0 --alice-seed 1 --bob-seed 2 --out x.json --dx 1e10000000" \
             "capacity --m 2 --baud 1e100000" "capacity --m 2 --baud 1e5000"; do
  status=0
  timeout 20 python -m rbc.cli $flags || status=$?
  test "$status" -eq 1
done
# m past 64 is refused with exit 1, not a hang
status=0
timeout 20 python -m rbc.cli run --m 65 --rounds 2 --bit 0 --alice-seed 1 --bob-seed 2 --out m65.json || status=$?
test "$status" -eq 1
# a run past the tape bound is refused with exit 1, not grown until memory runs out
for cmd in "run --m 2 --rounds 60 --bit 0 --alice-seed 1 --bob-seed 2 --out big.json" \
           "attack --m 2 --rounds 60 --strategy offset-guess --trials 1 --seed 1"; do
  status=0
  timeout 20 python -m rbc.cli $cmd || status=$?
  test "$status" -eq 1
done
# an --out that cannot be written is refused with exit 1, not a traceback
status=0
python -m rbc.cli run --m 2 --rounds 2 --bit 0 --alice-seed 1 --bob-seed 2 --out /nonexistent/dir/t.json || status=$?
test "$status" -eq 1
# intra_delay > delta + delta_t misses every response deadline: invalid params, exit 1
status=0
python -m rbc.cli run --m 2 --rounds 2 --bit 0 --alice-seed 1 --bob-seed 2 --dx 1 --delta 0.05 --dt 0.01 --intra-delay 0.1 --out bad.json || status=$?
test "$status" -eq 1
# the capacity does not depend on intra_delay: the flag is unknown there, exit 1
status=0
python -m rbc.cli capacity --m 10 --baud 1e11 --intra-delay 0.1 || status=$?
test "$status" -eq 1
# a transcript naming another generator is refused, exit 1
sed 's/"generator": "splitmix64-v1"/"generator": "mt19937"/' t.json > foreign.json
grep -q '"generator": "mt19937"' foreign.json
status=0
python -m rbc.cli verify foreign.json || status=$?
test "$status" -eq 1
