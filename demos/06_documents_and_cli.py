"""Documents: canonical JSON in, certified decompositions out.

Everything the command line does is callable in-process; run() takes an argv
list and returns the exit code, printing where the real CLI would.
"""

import json
import os
import tempfile

from scdforge.cli import build_document, decode, encode, run
from scdforge.prune import quotient_scd_cyclic

decomp = quotient_scd_cyclic(5, 1)
data = encode(decomp)
print("canonical document bytes:")
print(data.decode().strip())

# decode reads the bytes back into the same decomposition, plus the document's stats;
# build_document is the same document as a JSON value
back, stats = decode(data)
assert back == decomp and encode(back) == data
assert stats == build_document(decomp)["stats"]
print(f"round trip: ok ({stats['element_count']} elements in {stats['chain_count']} chains)")

# the CLI re-verifies whatever it reads back
with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
    fh.write(data)
    path = fh.name
print(f"\n$ scdforge verify --input {path}")
code = run(["verify", "--input", path])
print(f"exit code {code}")

# tampering is caught: drop the singleton chain and fix up the stats
broken = json.loads(data)
broken["chains"] = broken["chains"][:-1]
broken["stats"]["chain_count"] -= 1
broken["stats"]["element_count"] -= 1
broken["stats"]["rank_profile"] = [1, 1, 1, 1, 1, 1]
with open(path, "wb") as fh:
    fh.write(encode(broken))
print(f"\n$ scdforge verify --input {path}   (singleton deleted)")
code = run(["verify", "--input", path])
print(f"exit code {code}")

print("\n$ scdforge chainpower --k 3 --m 2 --text")
run(["chainpower", "--k", "3", "--m", "2", "--text"])

print("\n$ scdforge orbits --n 4 --group '(1 2 3 4)' --dot")
run(["orbits", "--n", "4", "--group", "(1 2 3 4)", "--dot"])

os.unlink(path)
