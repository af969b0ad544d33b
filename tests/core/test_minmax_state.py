"""White-box tests for the efficient algorithm's bookkeeping.

``_MinMaxState`` implements checkList / prune / checkAnswer
(paper Algorithm 3) over the pending-entry heap; these tests pin down
its state machine on hand-built event sequences.
"""

from repro import Client, Point
from repro.core.efficient import (
    _KIND_CANDIDATE,
    _KIND_EXISTING,
    _MinMaxState,
)


def clients(n):
    return [Client(i, Point(float(i), 0.0, 0), i) for i in range(n)]


class TestCheckList:
    def test_is_first_requires_every_client(self):
        state = _MinMaxState(clients(2))
        state.record(clients(2)[0].client_id, 100, 1.0, False)
        assert not state.update_first(1.0)  # client 1 has nothing
        state.record(clients(2)[1].client_id, 100, 2.0, False)
        assert not state.update_first(1.5)  # 2.0 > Gd
        assert state.update_first(2.0)

    def test_pruned_clients_do_not_block_is_first(self):
        cs = clients(2)
        state = _MinMaxState(cs)
        state.record(cs[0].client_id, 200, 0.5, True)  # existing for client 0
        # Absorb the existing entry: client 0 pruned.
        import heapq

        dist, kind, cid, fac = heapq.heappop(state.pending)
        state.absorb(dist, kind, cid, fac)
        assert state.kept_count == 1
        state.record(cs[1].client_id, 100, 1.0, False)
        assert state.update_first(1.0)


class TestAbsorb:
    def test_existing_entry_prunes(self):
        cs = clients(1)
        state = _MinMaxState(cs)
        state.absorb(3.0, _KIND_EXISTING, 0, 50)
        assert state.kept_count == 0
        assert state.max_pruned_de == 3.0
        assert 0 in state.pruned

    def test_candidate_entry_covers(self):
        cs = clients(2)
        state = _MinMaxState(cs)
        state.absorb(1.0, _KIND_CANDIDATE, 0, 77)
        assert state.cover_count[77] == 1
        assert state.full_cover_answer() is None  # client 1 uncovered
        state.absorb(2.0, _KIND_CANDIDATE, 1, 77)
        assert state.full_cover_answer() == 77
        assert state.dlow == 2.0

    def test_pruning_decrements_covers(self):
        cs = clients(2)
        state = _MinMaxState(cs)
        state.absorb(1.0, _KIND_CANDIDATE, 0, 77)
        state.absorb(1.5, _KIND_CANDIDATE, 1, 77)
        state.absorb(2.0, _KIND_EXISTING, 0, 50)
        # Client 0 pruned: cover count drops but kept count too.
        assert state.cover_count[77] == 1
        assert state.kept_count == 1
        assert state.full_cover_answer() == 77

    def test_entries_for_pruned_clients_ignored(self):
        cs = clients(1)
        state = _MinMaxState(cs)
        state.absorb(1.0, _KIND_EXISTING, 0, 50)
        state.absorb(2.0, _KIND_CANDIDATE, 0, 77)
        assert 77 not in state.cover_count

    def test_smallest_id_wins_ties(self):
        cs = clients(1)
        state = _MinMaxState(cs)
        state.absorb(1.0, _KIND_CANDIDATE, 0, 90)
        state.absorb(1.0, _KIND_CANDIDATE, 0, 30)
        assert state.full_cover_answer() == 30


class TestRecordOrdering:
    def test_existing_sorts_before_candidate_at_equal_distance(self):
        cs = clients(1)
        state = _MinMaxState(cs)
        state.record(cs[0].client_id, 77, 5.0, False)
        state.record(cs[0].client_id, 50, 5.0, True)
        first = state.pending[0]
        assert first[1] == _KIND_EXISTING

    def test_records_for_pruned_clients_skipped(self):
        cs = clients(1)
        state = _MinMaxState(cs)
        state.absorb(0.0, _KIND_EXISTING, 0, 50)
        state.record(cs[0].client_id, 77, 1.0, False)
        assert not state.pending
