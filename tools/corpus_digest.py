"""Print one sha256 per benchmark workload over the CLI's exit codes and stdout.

Usage: python3 tools/corpus_digest.py SRC

SRC is a checkout whose ``src/padelic`` answers the requests, in process,
through ``padelic.cli.run``.  The requests are rounds 0-2 of seeds 7 and 11
of every workload of this checkout's ``perfbench/corpus.py``, so two
checkouts measured with the same copy of this script get the same requests,
and they print the same lines exactly when they answer every request with
the same exit code and the same bytes on stdout.  Standard library only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (7, 11)
ROUNDS = range(3)


def _import_cli(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import padelic.cli
    if not os.path.abspath(padelic.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"padelic imported from {padelic.cli.__file__}, not from {src}")
    return padelic.cli


def _answer(cli, req: dict, path: str) -> bytes:
    """The exit code and stdout of one corpus request, as bytes."""
    argv = list(req["argv"])
    if req["file"] is not None:
        with open(path, "w") as fh:
            json.dump(req["file"], fh)
        argv = [path if a == "{file}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return f"{code}\n{len(buf.getvalue())}\n{buf.getvalue()}".encode()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cli = _import_cli(args[0])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import corpus
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "request.json")
        for workload in corpus.WORKLOADS:
            digest, count = hashlib.sha256(), 0
            for seed in SEEDS:
                for index in ROUNDS:
                    for req in corpus.round_requests(workload, seed, index):
                        digest.update(_answer(cli, req, path))
                        count += 1
            print(f"{workload} {count} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
