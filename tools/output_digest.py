"""Print one sha256 per benchmark workload over every output of its operations.

Two versions whose digests agree at a seed gave byte-identical outputs on
all operations of the three ``perfbench`` workloads at that seed. The
digest covers each operation's status (or the exception it raised), every
count, every final table and every field of every trace record; for
``cli-files`` it covers each command's exit code and every output file,
with ``wall_clock_seconds`` dropped from the summaries.

Run from the root of a checkout, with one seed or several:

    python tools/output_digest.py --seed 0 5

The operations are built by ``perfbench/workloads.py``, unchanged, with
one BLAS thread; the ``cli-files`` outputs go to a temporary directory.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]

import maxent_marl  # noqa: E402
import workloads  # noqa: E402


def feed(h, value) -> None:
    """Hash ``value`` with its type, shape and bits: arrays by their bytes,
    floats by ``repr``, dataclasses field by field."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(value, f.name))
        h.update(b")")
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}[{len(value)}](".encode())
        for item in value:
            feed(h, item)
        h.update(b")")
    elif value is None or isinstance(value, (bool, int, float, str, np.generic)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    else:
        raise TypeError(f"no digest for {type(value).__name__}")


def feed_files(h, directory: Path) -> None:
    """Every file under ``directory`` by relative path; JSON summaries
    without ``wall_clock_seconds``, the one field that is not deterministic."""
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            record = json.loads(data)
            record.pop("wall_clock_seconds", None)
            data = json.dumps(record, sort_keys=True).encode()
        h.update(f"file {path.relative_to(directory)} {len(data)}:".encode())
        h.update(data)


def digest(name: str, seed: int) -> tuple[str, int]:
    """The workload's sha256 and its operation count."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / name
        reset, ops = workloads.WORKLOADS[name](maxent_marl, seed, workdir)
        if reset is not None:
            reset()
        for op in ops:
            h.update(f"op {op.label}:".encode())
            try:
                result = op.run(maxent_marl)
            except Exception as exc:  # a raised error is an output too
                result = f"raised {type(exc).__name__}: {exc}"
            feed(h, result)
        if reset is not None:
            feed_files(h, workdir / "results")
    return h.hexdigest(), len(ops)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    for seed in args.seed:
        total = 0
        for name in workloads.WORKLOADS:
            sha, count = digest(name, seed)
            total += count
            print(f"{name} {sha} ({count} operations)")
        print(f"seed {seed}: {total} operations")


if __name__ == "__main__":
    main()
