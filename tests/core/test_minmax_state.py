"""White-box tests for the efficient algorithm's bookkeeping.

``_MinMaxState`` implements checkList / prune / checkAnswer
(paper Algorithm 3) over sorted runs, one per facility retrieval, and a
histogram of cover counts; these tests pin down its state machine on
hand-built retrieval sequences.  ``tests/core/test_minmax_runs.py``
checks it against the per-record state it replaced.
"""

from repro.core.efficient import _KIND_EXISTING, _MinMaxState


def candidate(state, facility, client_ids, dists):
    state.record(facility, False, client_ids, dists)


def existing(state, facility, client_ids, dists):
    state.record(facility, True, client_ids, dists)


class TestCheckList:
    """``isFirst`` is implicit: an answer covers every kept client
    within ``dlow <= Gd``, so none exists while one is uncovered."""

    def test_is_first_requires_every_client(self):
        state = _MinMaxState(2)
        candidate(state, 100, [0], [1.0])
        assert state.step(1.0) is None  # client 1 has nothing
        candidate(state, 100, [1], [2.0])
        assert state.step(1.5) is None  # 2.0 > Gd
        assert state.step(2.0) == (100, 2.0)

    def test_pruned_clients_do_not_block_is_first(self):
        state = _MinMaxState(2)
        existing(state, 200, [0], [0.5])
        assert state.step(0.5) is None
        assert state.kept_count == 1
        assert state.newly_settled == [0]
        candidate(state, 100, [1], [1.0])
        assert state.step(1.0) == (100, 1.0)


class TestAbsorb:
    def test_existing_entry_prunes(self):
        state = _MinMaxState(1)
        existing(state, 50, [0], [3.0])
        assert state.step(3.0) == (None, 3.0)  # everyone pruned
        assert state.kept_count == 0
        assert state.max_pruned_de == 3.0
        assert 0 in state.pruned

    def test_candidate_entry_covers(self):
        state = _MinMaxState(2)
        candidate(state, 77, [0], [1.0])
        assert state.step(1.0) is None
        assert state.cover_count[77] == 1
        assert state.level[1] == 1
        assert state.full_cover_answer() is None  # client 1 uncovered
        candidate(state, 77, [1], [2.0])
        assert state.step(2.0) == (77, 2.0)
        assert state.level[2] == 1 and state.level[1] == 0
        assert state.dlow == 2.0

    def test_pruning_decrements_covers(self):
        state = _MinMaxState(2)
        candidate(state, 77, [0], [1.0])
        candidate(state, 88, [1], [1.5])
        existing(state, 50, [0], [2.0])
        assert state.step(1.5) is None
        # Client 0 pruned: 77 loses its cover, so only 88 covers every
        # kept client (an undecremented 77 would win on its smaller id).
        assert state.step(2.0) == (88, 2.0)
        assert state.cover_count == {77: 0, 88: 1}
        assert state.kept_count == 1
        assert state.level[1] == 1

    def test_entries_for_pruned_clients_ignored(self):
        state = _MinMaxState(2)
        existing(state, 50, [0], [1.0])
        candidate(state, 77, [0], [2.0])  # queued before the prune
        assert state.step(2.0) is None  # client 1 stays uncovered
        assert 77 not in state.cover_count
        assert state.dlow == 2.0

    def test_smallest_id_wins_ties(self):
        state = _MinMaxState(2)
        candidate(state, 90, [0], [1.0])
        candidate(state, 30, [0], [1.0])
        existing(state, 50, [1], [2.0])
        # The prune of client 1 completes 90 and 30 at once.
        assert state.step(2.0) == (30, 2.0)
        assert state.level[1] == 2

    def test_answer_is_checked_after_every_entry(self):
        state = _MinMaxState(1)
        candidate(state, 77, [0], [1.0])
        candidate(state, 88, [0], [2.0])
        # 77 decides at dlow 1.0, although Gd already admits 88.
        assert state.step(2.0) == (77, 1.0)


class TestRecordOrdering:
    def test_existing_sorts_before_candidate_at_equal_distance(self):
        state = _MinMaxState(1)
        candidate(state, 77, [0], [5.0])
        existing(state, 90, [0], [5.0])
        assert state.runs[0][1] == _KIND_EXISTING
        # The client is pruned at 5.0 before 77 can cover it: no
        # improvement, although 77 < 90 would order the candidate first.
        assert state.step(5.0) == (None, 5.0)

    def test_records_for_pruned_clients_skipped(self):
        state = _MinMaxState(2)
        existing(state, 50, [0], [0.0])
        assert state.step(0.0) is None
        candidate(state, 77, [0], [1.0])
        assert not state.runs  # nothing left once client 0 is dropped
        candidate(state, 77, [1, 0], [1.0, 1.0])
        assert [run[5] for run in state.runs] == [[(1.0, 1)]]

    def test_runs_merge_in_pending_order(self):
        state = _MinMaxState(4)  # client 3 is never covered
        candidate(state, 77, [2, 0, 1], [3.0, 1.0, 5.0])
        candidate(state, 88, [1, 2], [2.0, 4.0])
        existing(state, 50, [1], [4.0])
        assert state.step(4.0) is None
        # (1.0, 0, 77) (2.0, 1, 88) (3.0, 2, 77) (4.0, E, 1, 50)
        # (4.0, C, 2, 88): client 1's cover of 88 went with its prune.
        assert state.newly_settled == [1]
        assert state.cover_count == {77: 2, 88: 1}
        assert state.dlow == 4.0
        assert [run[0] for run in state.runs] == [5.0]
