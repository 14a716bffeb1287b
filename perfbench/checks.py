"""Output checks for one ``kgrerank run`` directory.

A run is checked list by list: one list is the ranking of one base-run user
under one (metric, order). A list fails when the run exited non-zero or left
its stale flag, when the rerank file misses the user or does not hold a
permutation of the user's base list, when ``report.csv`` has the wrong
number of rows, or when a digest differs from the expected one.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_run_file(path: Path) -> dict[str, list[str]]:
    lists: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        user, _, item, _ = line.split()
        lists.setdefault(user, []).append(item)
    return lists


def digests(out_dir: Path, metrics, orders) -> dict[str, str | None]:
    """sha256 of the base run, the report and every rerank file (None if absent)."""
    names = ["base_run.txt", "report.csv"] + [
        f"rerank_{m}_{o}.txt" for m in metrics for o in orders
    ]
    return {
        name: sha256(out_dir / name) if (out_dir / name).exists() else None
        for name in names
    }


def check_run(out_dir: Path, exit_code: int, metrics, orders,
              expected: dict[str, str | None] | None) -> tuple[int, int, list[str], dict]:
    """Return (attempted, failed, problems, digests) for one run directory.

    ``expected`` maps artifact names to the digests they must have; None
    skips the digest comparison.
    """
    problems: list[str] = []
    combos = [(m, o) for m in metrics for o in orders]
    found = digests(out_dir, metrics, orders)
    try:
        base = read_run_file(out_dir / "base_run.txt")
        reranked = {
            (m, o): read_run_file(out_dir / f"rerank_{m}_{o}.txt") for m, o in combos
        }
    except (OSError, ValueError) as exc:
        base, reranked = {}, {}
        problems.append(f"unreadable run file: {exc}")
    attempted = max(1, len(base) * len(combos))
    if exit_code != 0 or (out_dir / "_STALE").exists() or not base:
        problems.append(f"run failed: exit code {exit_code}, base lists {len(base)}")
        return attempted, attempted, problems, found

    whole_run_bad = False
    report = out_dir / "report.csv"
    rows = len(report.read_text(encoding="utf-8").splitlines()) - 1 if report.exists() else -1
    # one row per (user, metric, order), plus the base and profile rows
    expected_rows = len(base) * (len(combos) + 2)
    if rows != expected_rows:
        problems.append(f"report.csv has {rows} rows, expected {expected_rows}")
        whole_run_bad = True
    for name in ("base_run.txt", "report.csv"):
        if expected is not None and found[name] != expected.get(name):
            problems.append(f"{name} digest differs from the expected one")
            whole_run_bad = True
    if whole_run_bad:
        return attempted, attempted, problems, found

    failed = 0
    for metric, order in combos:
        name = f"rerank_{metric}_{order}.txt"
        if expected is not None and found[name] != expected.get(name):
            problems.append(f"{name} digest differs from the expected one")
            failed += len(base)
            continue
        for user, items in base.items():
            if sorted(reranked[(metric, order)].get(user, ())) != sorted(items):
                problems.append(f"{name}: user {user} is not a permutation of the base list")
                failed += 1
    return attempted, failed, problems, found
