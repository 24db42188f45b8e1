"""Write-ahead log behaviour."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.wal import WriteAheadLog


def test_append_assigns_increasing_lsns():
    wal = WriteAheadLog()
    records = [wal.append("prepare", txn=i) for i in range(3)]
    assert [r.lsn for r in records] == [1, 2, 3]


def test_records_scan_in_order_and_filter_by_kind():
    wal = WriteAheadLog()
    wal.append("prepare", txn=1)
    wal.append("commit", txn=1)
    wal.append("prepare", txn=2)
    assert [r.payload["txn"] for r in wal.records("prepare")] == [1, 2]
    assert [r.kind for r in wal.records()] == ["prepare", "commit", "prepare"]


def test_last_by_txn_id():
    wal = WriteAheadLog()
    wal.append("decision", txn_id=1, outcome="commit")
    wal.append("decision", txn_id=2, outcome="abort")
    found = wal.last("decision", txn_id=1)
    assert found is not None and found.payload["outcome"] == "commit"
    assert wal.last("decision", txn_id=3) is None
    assert wal.last("decision").payload["txn_id"] == 2


def test_last_without_match_is_none():
    assert WriteAheadLog().last("anything") is None


def test_truncate_before_drops_old_records():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append("r", i=i)
    dropped = wal.truncate_before(4)
    assert dropped == 3
    assert [r.payload["i"] for r in wal.records()] == [3, 4]
    assert len(wal) == 2


def test_payload_is_copied_at_append():
    wal = WriteAheadLog()
    payload = {"a": 1}
    record = wal.append("r", **payload)
    payload["a"] = 2
    assert record.payload["a"] == 1


def test_summary_counts_live_kinds_in_first_appearance_order():
    wal = WriteAheadLog()
    for kind in ("prepared", "committed", "prepared", "checkpoint"):
        wal.append(kind, txn_id="t")
    assert wal.summary() == {
        "depth": 4, "first_lsn": 1, "last_lsn": 4,
        "kinds": {"prepared": 2, "committed": 1, "checkpoint": 1}}
    wal.truncate_before(3)
    assert wal.summary()["kinds"] == {"prepared": 1, "checkpoint": 1}


# -- the index agrees with a reverse scan --------------------------------------

KINDS = ("prepared", "committed", "aborted", "checkpoint")
TXNS = ("t1", "t2", "t3", None)

#: one step: ("append", kind, txn_id) or ("truncate", lsn offset back from the
#: next lsn)
steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(KINDS),
              st.sampled_from(TXNS)),
    st.tuples(st.just("truncate"), st.integers(0, 8), st.none()),
), max_size=60)


def _scan_last(records, kind, txn_id=None):
    for record in reversed(records):
        if record.kind != kind:
            continue
        if txn_id is not None and record.payload.get("txn_id") != txn_id:
            continue
        return record
    return None


def _scan_summary(records):
    kinds = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    return {"depth": len(records),
            "first_lsn": records[0].lsn if records else 0,
            "last_lsn": records[-1].lsn if records else 0,
            "kinds": kinds}


@settings(max_examples=200, deadline=None)
@given(steps)
def test_indexed_lookups_match_a_reverse_scan(ops):
    wal = WriteAheadLog()
    reference = []  # the live records, kept by hand
    next_lsn = 1
    for op, arg, txn_id in ops:
        if op == "append":
            payload = {} if txn_id is None else {"txn_id": txn_id}
            reference.append(wal.append(arg, **payload))
            next_lsn += 1
        else:
            cutoff = next_lsn - arg
            dropped = wal.truncate_before(cutoff)
            kept = [r for r in reference if r.lsn >= cutoff]
            assert dropped == len(reference) - len(kept)
            reference = kept
        assert list(wal.records()) == reference
        assert wal.summary() == _scan_summary(reference)
        assert list(wal.summary()["kinds"]) == \
            list(_scan_summary(reference)["kinds"])
        for kind in KINDS:
            assert wal.last(kind) is _scan_last(reference, kind)
            for txn in TXNS[:-1]:
                assert wal.last(kind, txn_id=txn) is \
                    _scan_last(reference, kind, txn)
