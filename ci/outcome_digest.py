"""One SHA-256 over every outcome of the benchmark's hostile corpora.

    python3 ci/outcome_digest.py

Builds the ``hostile`` corpora of seeds 1-3 with ``perfbench/workloads.py``'s
``Hostile`` and runs each file through ``parse_transcript`` then ``verify``,
each corpus twice in one process, so the second pass meets the reader's warm
caches.  The digest covers the corpus bytes, every parse-error message and
every verdict repr.  A change that keeps every outcome prints the same line.
Any exception other than a ``TranscriptFormatError`` from the parser stops
the script.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from rbc import netsim, spacetime, transcript_io, verifier  # noqa: E402
from workloads import Hostile  # noqa: E402

SEEDS = (1, 2, 3)
PASSES = 2


def main() -> None:
    api = SimpleNamespace(netsim=netsim, spacetime=spacetime,
                          transcript_io=transcript_io)
    digest = hashlib.sha256()

    def add(text: str) -> None:
        data = text.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big") + data)

    outcomes = 0
    for seed in SEEDS:
        files = Hostile(api, seed).files
        for text in files:
            add(text)
        for _ in range(PASSES):
            for text in files:
                try:
                    transcript = transcript_io.parse_transcript(text)
                except transcript_io.TranscriptFormatError as err:
                    add(f"parse_error: {err}")
                else:
                    add(repr(verifier.verify(transcript)))
                outcomes += 1
    print(f"{digest.hexdigest()}  {outcomes} outcomes")


if __name__ == "__main__":
    main()
