"""Dataset loading and the 1:4 train/test split."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DataError
from .executor import QueryRecord

REQUIRED_FIELDS = ("id", "query", "answer", "domain", "difficulty")


def load_dataset(path) -> list[QueryRecord]:
    """Read a JSONL dataset; one record per line, file order preserved. Each
    `DataError` names the file."""
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"dataset {path} is not text: {exc}") from exc
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
                raise DataError(f"dataset {path} line {line_no}: invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise DataError(f"dataset {path} line {line_no}: JSON nested past the"
                                f" recursion limit") from exc
            if not isinstance(obj, dict):
                raise DataError(f"dataset {path} line {line_no}: not a JSON object")
            for field in REQUIRED_FIELDS:
                if field not in obj:
                    raise DataError(f"dataset {path} line {line_no}: missing field {field!r}")
            try:
                record = QueryRecord(
                    id=str(obj["id"]),
                    query=str(obj["query"]),
                    answer=str(obj["answer"]),
                    domain=str(obj["domain"]),
                    difficulty=obj["difficulty"],
                )
            except DataError as exc:
                raise DataError(f"dataset {path} line {line_no}: {exc}") from exc
            if record.id in seen:
                raise DataError(f"dataset {path} line {line_no}: duplicate query id"
                                f" {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def split_dataset(records, seed):
    """Seeded shuffle, then the first ceil(n/5) records train and the rest
    test (a 1:4 ratio)."""
    n = len(records)
    if n < 5:
        raise DataError(f"need at least 5 records, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = math.ceil(n / 5)
    train = [records[i] for i in perm[:n_train]]
    test = [records[i] for i in perm[n_train:]]
    return train, test
