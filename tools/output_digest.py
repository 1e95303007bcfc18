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

Two versions whose outputs differ in the last bits are held to README's
"Outputs across versions" bounds instead. ``--dump FILE`` also saves, per
seed, workload and operation, what those bounds speak of: the status, the
counts, the final tables and the trace's J values (for ``cli-files``,
read from each run's summary and trace CSV, and the replication table's
text). ``--compare A B`` checks two such dumps against the bounds, prints
every breach and the worst policy and J differences, and exits with 1 if
there is a breach:

    python tools/output_digest.py --seed 0 5 13 --dump new.json
    python tools/output_digest.py --compare old.json new.json
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

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


def entry(result) -> dict:
    """The bounded outputs of one operation: its status, its counts, its
    final tables and its trace's J values."""
    if isinstance(result, (str, int)):  # a raised error, or a CLI exit code
        return {"status": result}
    if isinstance(result, tuple):  # (policy, [Q,] trace) of a HASPI or MEHAML solve
        policy, trace = result[0], result[-1]
        counts = [trace.sweeps, len(trace.iterations)]
        returns = [rec.maxent_return for rec in trace.iterations]
        status = trace.status
    else:  # the oracle's solution, which keeps no trace here
        policy, counts, returns, status = result.joint_policy, [result.iterations], [], result.status
    return {"status": status, "counts": counts,
            "policies": [agent.table.tolist() for agent in policy.agents], "J": returns}


def file_entries(directory: Path) -> dict:
    """The bounded outputs of the CLI runs that wrote to ``directory``: per
    run summary its status, iteration count, final tables, and its final
    return followed by its trace's J column; a sweep's statuses; the
    replication table by its text."""
    entries = {}
    for path in sorted(directory.glob("*_summary.json")):
        name = path.name[: -len("_summary.json")]
        summary = json.loads(path.read_text())
        if "statuses" in summary:  # a sweep's summary of its branches
            entries[f"file {name}"] = {"status": summary["statuses"]}
            continue
        returns = [summary["final_return"]]
        trace = directory / f"{name}_trace.csv"
        if trace.exists():
            rows = list(csv.reader(trace.read_text().splitlines()))
            column = rows[0].index("J")
            returns += [float(row[column]) for row in rows[1:]]
        entries[f"file {name}"] = {"status": summary["status"], "counts": [summary["iterations"]],
                                   "policies": summary["final_policy"] or [], "J": returns}
    table = directory / "replication_table.csv"
    if table.exists():
        entries["file replication_table.csv"] = {"status": "written",
                                                 "text": table.read_bytes().decode()}
    return entries


def digest(name: str, seed: int, entries: Optional[dict] = None) -> tuple[str, int]:
    """The workload's sha256 and its operation count; with ``entries``, each
    operation's bounded outputs are put there too, by label."""
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
            if entries is not None:
                entries[op.label] = entry(result)
        if reset is not None:
            feed_files(h, workdir / "results")
            if entries is not None:
                entries.update(file_entries(workdir / "results"))
    return h.hexdigest(), len(ops)


# README's "Outputs across versions": final policies agree to 1e-12, and
# returns and every trace J to 1e-12 * max(1, |J|). The cli-files MEHAML run
# in line_search mode accepts a step by an exact comparison, so its sweep
# count may change, and its policies agree to 1e-9.
POLICY_TOL = 1e-12
RETURN_TOL = 1e-12
LINE_SEARCH = ("cli-files", "file mehaml")
LINE_SEARCH_POLICY_TOL = 1e-9


def compare(old: dict, new: dict) -> tuple[list[str], tuple, tuple]:
    """Every breach of the bounds between two dumps, and the worst policy
    and J differences, each as (difference, where)."""
    breaches = []
    worst_policy = worst_return = (0.0, "none")
    keys = {(s, w, label) for dump in (old, new) for s in dump for w in dump[s] for label in dump[s][w]}
    for seed, workload, label in sorted(keys):
        where = f"seed {seed} {workload} {label}"
        a = old.get(seed, {}).get(workload, {}).get(label)
        b = new.get(seed, {}).get(workload, {}).get(label)
        if a is None or b is None:
            breaches.append(f"{where}: in one dump only")
            continue
        if a["status"] != b["status"]:
            breaches.append(f"{where}: status {a['status']!r} became {b['status']!r}")
        if a.get("text") != b.get("text"):
            breaches.append(f"{where}: the text differs")
        line_search = (workload, label) == LINE_SEARCH
        same_counts = a.get("counts") == b.get("counts")
        if not same_counts and not line_search:
            breaches.append(f"{where}: counts {a.get('counts')} became {b.get('counts')}")
        tol = LINE_SEARCH_POLICY_TOL if line_search else POLICY_TOL
        old_tables, new_tables = a.get("policies", []), b.get("policies", [])
        if len(old_tables) != len(new_tables):
            breaches.append(f"{where}: the number of policy tables differs")
        for x, y in zip(old_tables, new_tables):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            if x.shape != y.shape:
                breaches.append(f"{where}: table shape {x.shape} became {y.shape}")
                continue
            difference = float(np.abs(x - y).max(initial=0.0))
            if difference > worst_policy[0]:
                worst_policy = (difference, where)
            if not difference <= tol:
                breaches.append(f"{where}: a policy moved by {difference:.3e} > {tol:g}")
        pairs = list(zip(a.get("J", []), b.get("J", [])))
        if line_search and not same_counts:  # held to its final return, its first J
            pairs = pairs[:1]
        for x, y in pairs:
            if x is None or y is None:
                if x != y:
                    breaches.append(f"{where}: J {x} became {y}")
                continue
            difference = abs(x - y) / max(1.0, abs(x))
            if difference > worst_return[0]:
                worst_return = (difference, where)
            if not difference <= RETURN_TOL:
                breaches.append(f"{where}: J {x!r} became {y!r}")
    return breaches, worst_policy, worst_return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--dump", metavar="FILE", help="save the bounded outputs as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="check two dumps against the bounds and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        breaches, (policy, policy_at), (ret, ret_at) = compare(old, new)
        for breach in breaches:
            print(f"breach: {breach}")
        print(f"worst policy difference {policy:.3e} ({policy_at})")
        print(f"worst relative J difference {ret:.3e} ({ret_at})")
        print(f"breaches: {len(breaches)}" if breaches else "within bounds")
        return 1 if breaches else 0
    dump = {}
    for seed in args.seed:
        total = 0
        for name in workloads.WORKLOADS:
            entries = dump.setdefault(str(seed), {}).setdefault(name, {})
            sha, count = digest(name, seed, entries if args.dump else None)
            total += count
            print(f"{name} {sha} ({count} operations)")
        print(f"seed {seed}: {total} operations")
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
