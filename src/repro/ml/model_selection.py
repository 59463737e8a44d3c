"""Dataset splitting utilities.

Section 5.2.2 splits *by pipeline*, not by graphlet: all graphlets of a
pipeline land on the same side, so the model cannot memorize a pipeline's
push pattern, and the split targets ~80% of graphlets (not pipelines) in
training with roughly matched class balance. :func:`grouped_train_test_split`
implements exactly that.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def grouped_train_test_split(groups, train_weight_target: float,
                             rng: np.random.Generator
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Split rows so whole groups go to one side.

    Groups (e.g. pipeline ids) are shuffled, then assigned to the training
    side until the training side holds ``train_weight_target`` of all rows
    (the paper's "~80% of the total number of graphlets").

    Returns:
        (train_indices, test_indices), each sorted ascending.
    """
    if not 0 < train_weight_target < 1:
        raise ValueError("train_weight_target must be in (0, 1)")
    groups = list(groups)
    if not groups:
        raise ValueError("cannot split an empty dataset")
    by_group: dict = defaultdict(list)
    for index, group in enumerate(groups):
        by_group[group].append(index)
    group_ids = list(by_group)
    rng.shuffle(group_ids)
    n_total = len(groups)
    train_indices: list[int] = []
    test_indices: list[int] = []
    taken = 0
    for group_id in group_ids:
        members = by_group[group_id]
        if taken < train_weight_target * n_total:
            train_indices.extend(members)
            taken += len(members)
        else:
            test_indices.extend(members)
    if not test_indices:
        # Degenerate corpora (one giant group): move the last group over.
        last = by_group[group_ids[-1]]
        last_set = set(last)
        train_indices = [i for i in train_indices if i not in last_set]
        test_indices = last
    return (np.asarray(sorted(train_indices), dtype=int),
            np.asarray(sorted(test_indices), dtype=int))
