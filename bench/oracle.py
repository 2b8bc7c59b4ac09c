"""Brute-force reference for top-k: every row scored on its own, then a
full sort with ties broken by ascending doc id."""

from __future__ import annotations

import numpy as np

from boolsearch.index import Index, embed_query


def oracle_top_k(index: Index, query_text: str, k: int) -> list[tuple[str, float]]:
    vec = embed_query(index, query_text)
    rows = index.matrix.astype(np.float64)
    scored = [
        (index.doc_ids[i], float(np.sum(rows[i] * vec)))
        for i in range(len(index.doc_ids))
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
