"""Unit tests for continuous IFLS over client event streams.

The load-bearing property is the oracle guarantee: the incremental
path answers bit-identically to a from-scratch recompute after every
event, on the serial path and through a warm session alike.
"""

import random

import pytest

from repro import (
    Client,
    ContinuousQuery,
    IFLSEngine,
    Point,
    QueryError,
    StreamAnswer,
    open_venue,
    read_events,
    synthetic_events,
    write_events,
)
from repro.core.stream import (
    MODE_EMPTY,
    MODE_SKIP,
    STATUS_EMPTY,
    STREAM_FORMAT,
    ClientEvent,
)
from repro.datasets import small_office, uniform_clients
from repro.errors import ProtocolError
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def setup():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    fs = facility_split(rooms, existing=3, candidates=6, seed=41)
    return venue, engine, fs


def replay_pair(engine, fs, events):
    """(incremental answers, oracle answers) for one event sequence."""
    fast = ContinuousQuery(engine, fs)
    oracle = ContinuousQuery(engine, fs, incremental=False)
    return fast, oracle, [
        (fast.apply(event), oracle.apply(event)) for event in events
    ]


def assert_identical(fast_answer, oracle_answer):
    assert fast_answer.answer == oracle_answer.answer
    assert fast_answer.objective == oracle_answer.objective
    assert fast_answer.status == oracle_answer.status
    assert fast_answer.event_index == oracle_answer.event_index


class TestEventCodec:
    def test_constructors(self, setup):
        venue, _, _ = setup
        client = make_clients(venue, 1, seed=0)[0]
        assert ClientEvent.add(client).kind == "add"
        assert ClientEvent.remove(5).client is None
        assert ClientEvent.move(client).client_id == client.client_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            ClientEvent("teleport", 1)

    def test_remove_must_not_carry_client(self, setup):
        venue, _, _ = setup
        client = make_clients(venue, 1, seed=0)[0]
        with pytest.raises(QueryError):
            ClientEvent("remove", client.client_id, client)

    def test_add_requires_client(self):
        with pytest.raises(QueryError):
            ClientEvent("add", 1)

    def test_id_mismatch_rejected(self, setup):
        venue, _, _ = setup
        client = make_clients(venue, 1, seed=0)[0]
        with pytest.raises(QueryError):
            ClientEvent("move", client.client_id + 1, client)

    def test_payload_roundtrip_all_kinds(self, setup):
        venue, _, _ = setup
        client = make_clients(venue, 1, seed=1)[0]
        for event in (
            ClientEvent.add(client),
            ClientEvent.move(client),
            ClientEvent.remove(client.client_id),
        ):
            assert ClientEvent.from_payload(event.to_payload()) == event

    def test_from_payload_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            ClientEvent.from_payload([1, 2])
        with pytest.raises(ProtocolError):
            ClientEvent.from_payload({"kind": "add", "id": 3})
        with pytest.raises(ProtocolError):
            ClientEvent.from_payload({"kind": "nope", "id": 3})

    def test_event_file_roundtrip(self, setup, tmp_path):
        venue, _, _ = setup
        events = synthetic_events(venue, initial=5, events=10, seed=2)
        path = tmp_path / "events.jsonl"
        assert write_events(path, events) == len(events)
        assert read_events(path) == events

    def test_event_file_blank_lines_and_junk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "remove", "id": 4}\n\n')
        assert read_events(path) == [ClientEvent.remove(4)]
        path.write_text("not json\n")
        with pytest.raises(ProtocolError):
            read_events(path)

    def test_format_tag(self):
        assert STREAM_FORMAT == "ifls-stream/1"


class TestStreamAnswerCodec:
    def test_roundtrip(self):
        answer = StreamAnswer(
            answer=7, objective=12.5, status="ok", event_index=3,
            mode="partial", groups_reevaluated=2, groups_skipped=9,
        )
        assert StreamAnswer.from_payload(answer.to_payload()) == answer

    def test_roundtrip_no_improvement(self):
        answer = StreamAnswer(
            answer=None, objective=4.0, status="no_improvement",
            event_index=1, mode="full",
        )
        assert StreamAnswer.from_payload(answer.to_payload()) == answer

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            StreamAnswer.from_payload("nope")
        with pytest.raises(ProtocolError):
            StreamAnswer.from_payload({"answer": 1})


class TestHandleBasics:
    def test_requires_candidates(self, setup):
        venue, engine, fs = setup
        empty = type(fs)(fs.existing, frozenset())
        with pytest.raises(QueryError):
            ContinuousQuery(engine, empty)

    def test_requires_engine_or_session(self, setup):
        _, _, fs = setup
        with pytest.raises(QueryError):
            ContinuousQuery(facilities=fs)

    def test_minmax_only(self, setup):
        venue, engine, fs = setup
        with pytest.raises(QueryError):
            ContinuousQuery(engine, fs, objective="mindist")

    def test_initial_answer_is_empty(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        answer = stream.answer()
        assert answer.status == STATUS_EMPTY
        assert answer.mode == MODE_EMPTY
        assert answer.answer is None
        assert stream.client_count == 0

    def test_empty_batch_is_noop(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        assert stream.apply_batch([]) == []
        assert stream.stats.events == 0
        assert stream.answer().status == STATUS_EMPTY

    def test_clients_snapshot_is_id_sorted(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        crowd = make_clients(venue, 6, seed=5)
        stream.apply_batch(
            [ClientEvent.add(c) for c in reversed(crowd)]
        )
        assert [c.client_id for c in stream.clients] == list(range(6))

    def test_unknown_remove_rejected_before_mutation(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        stream.apply(ClientEvent.add(make_clients(venue, 1, seed=6)[0]))
        before = stream.answer()
        with pytest.raises(QueryError):
            stream.apply(ClientEvent.remove(999))
        assert stream.stats.events == 1
        assert stream.client_count == 1
        assert stream.answer() == before

    def test_unknown_move_rejected_before_mutation(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        ghost = make_clients(venue, 1, seed=7)[0]
        with pytest.raises(QueryError):
            stream.apply(ClientEvent.move(ghost))
        assert stream.stats.events == 0
        assert stream.client_count == 0

    @pytest.mark.parametrize("kind", ["add", "move"])
    @pytest.mark.parametrize(
        "incremental", [True, False], ids=["incremental", "oracle"]
    )
    def test_unknown_partition_rejected_before_mutation(
        self, setup, incremental, kind
    ):
        venue, engine, fs = setup
        crowd = make_clients(venue, 9, seed=10)
        stream = ContinuousQuery(engine, fs, incremental=incremental)
        stream.apply_batch([ClientEvent.add(c) for c in crowd[:8]])
        before = stream.answer()
        client_id = 999 if kind == "add" else crowd[0].client_id
        stray = Client(client_id, crowd[0].location, 99_999)
        event = getattr(ClientEvent, kind)(stray)
        with pytest.raises(
            QueryError,
            match=f"client {client_id} in unknown partition 99999",
        ):
            stream.apply(event)
        assert stream.stats.events == 8
        assert stream.client_count == 8
        assert stream.answer() == before
        oracle = ContinuousQuery(engine, fs, incremental=False)
        want = oracle.apply_batch([ClientEvent.add(c) for c in crowd])[-1]
        got = stream.apply(ClientEvent.add(crowd[8]))
        assert got.event_index == 9
        assert_identical(got, want)
        assert_identical(stream.recompute(), want)

    def test_drain_to_empty_and_refill(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        crowd = make_clients(venue, 3, seed=8)
        stream.apply_batch([ClientEvent.add(c) for c in crowd])
        for client in crowd:
            answer = stream.apply(
                ClientEvent.remove(client.client_id)
            )
        assert answer.status == STATUS_EMPTY
        assert stream.client_count == 0
        assert stream.result() is None
        refill = stream.apply(ClientEvent.add(crowd[0]))
        assert refill.status != STATUS_EMPTY
        assert refill.mode == "full"

    def test_recompute_matches_last_answer(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        stream.apply_batch(
            [ClientEvent.add(c) for c in make_clients(venue, 8, seed=9)]
        )
        last = stream.answer()
        events_before = stream.stats.events
        forced = stream.recompute()
        assert (forced.answer, forced.objective, forced.status) == (
            last.answer, last.objective, last.status
        )
        assert stream.stats.events == events_before


class TestEdgeCases:
    def test_duplicate_remove_raises_second_time(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        crowd = make_clients(venue, 4, seed=10)
        stream.apply_batch([ClientEvent.add(c) for c in crowd])
        stream.apply(ClientEvent.remove(2))
        with pytest.raises(QueryError):
            stream.apply(ClientEvent.remove(2))
        assert stream.client_count == 3

    def test_move_to_same_partition(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        oracle = ContinuousQuery(engine, fs, incremental=False)
        crowd = make_clients(venue, 10, seed=11)
        for client in crowd:
            stream.apply(ClientEvent.add(client))
            oracle.apply(ClientEvent.add(client))
        victim = crowd[0]
        rect = venue.partition(victim.partition_id).rect
        nudged = Client(
            victim.client_id,
            Point(
                (rect.min_x + rect.max_x) / 2,
                (rect.min_y + rect.max_y) / 2,
                rect.level,
            ),
            victim.partition_id,
        )
        event = ClientEvent.move(nudged)
        assert_identical(stream.apply(event), oracle.apply(event))
        assert stream.client_count == oracle.client_count == 10
        assert stream.clients[0].location == nudged.location

    def test_interleaved_add_remove_same_id(self, setup):
        venue, engine, fs = setup
        stream = ContinuousQuery(engine, fs)
        oracle = ContinuousQuery(engine, fs, incremental=False)
        crowd = make_clients(venue, 12, seed=12)
        first, second = crowd[0], Client(
            0, crowd[6].location, crowd[6].partition_id
        )
        events = [ClientEvent.add(c) for c in crowd[1:6]]
        events += [
            ClientEvent.add(first),
            ClientEvent.remove(0),
            ClientEvent.add(second),   # same id, new location
            ClientEvent.add(first),    # replace semantics, no remove
            ClientEvent.remove(0),
        ]
        for event in events:
            assert_identical(stream.apply(event), oracle.apply(event))
        assert stream.client_count == 5
        assert 0 not in {c.client_id for c in stream.clients}


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_serial_path(self, setup, seed):
        venue, engine, fs = setup
        events = synthetic_events(
            venue, initial=25, events=60, seed=seed
        )
        fast, oracle, pairs = replay_pair(engine, fs, events)
        for fast_answer, oracle_answer in pairs:
            assert_identical(fast_answer, oracle_answer)
        assert fast.stats.events == oracle.stats.events == len(events)
        # The incremental path must actually be incremental.
        assert fast.stats.skips > 0
        assert fast.stats.full_recomputes < oracle.stats.full_recomputes
        assert oracle.stats.skips == 0

    def test_session_path_matches_serial(self, setup):
        venue, engine, fs = setup
        events = synthetic_events(venue, initial=20, events=40, seed=4)
        warm = open_venue(venue).stream(fs, warm_session=True)
        assert warm.session is not None
        serial = ContinuousQuery(engine, fs)
        for event in events:
            assert_identical(warm.apply(event), serial.apply(event))

    def test_reevaluation_ratio_below_one(self, setup):
        venue, engine, fs = setup
        events = synthetic_events(
            venue, initial=40, events=80, seed=5
        )
        stream = ContinuousQuery(engine, fs)
        stream.apply_batch(events)
        assert stream.stats.reevaluation_ratio < 1.0
        assert stream.stats.groups_skipped > 0

    def test_skip_accounting(self, setup):
        venue, engine, fs = setup
        events = synthetic_events(venue, initial=15, events=30, seed=6)
        stream = ContinuousQuery(engine, fs)
        answers = stream.apply_batch(events)
        stats = stream.stats
        assert stats.events == len(events)
        assert stats.events == (
            stats.skips + stats.partial_solves + stats.full_recomputes
            + sum(1 for a in answers if a.mode == MODE_EMPTY)
        )
        assert sum(
            a.groups_reevaluated for a in answers
        ) == stats.groups_reevaluated
        for answer in answers:
            if answer.mode == MODE_SKIP:
                assert answer.groups_reevaluated == 0


class TestSyntheticEvents:
    def test_deterministic(self, setup):
        venue, _, _ = setup
        a = synthetic_events(venue, initial=10, events=20, seed=9)
        b = synthetic_events(venue, initial=10, events=20, seed=9)
        assert a == b

    def test_fraction_validation(self, setup):
        venue, _, _ = setup
        with pytest.raises(QueryError):
            synthetic_events(
                venue, initial=1, events=1, arrive=0.8, depart=0.5
            )

    def test_ids_unique_and_replayable(self, setup):
        venue, engine, fs = setup
        events = synthetic_events(venue, initial=8, events=50, seed=10)
        added = [e.client_id for e in events if e.kind == "add"]
        assert len(added) == len(set(added))
        stream = ContinuousQuery(engine, fs)
        stream.apply_batch(events)  # must not raise

    def test_uniform_clients_source(self, setup):
        venue, _, _ = setup
        rng = random.Random(0)
        crowd = uniform_clients(venue, 5, rng)
        assert len(crowd) == 5
