from hybridkit.accounting import record_alloc, track_allocations


def test_repeated_tag_keeps_one_entry_with_its_maximum():
    with track_allocations() as tracker:
        for i in range(1000):
            record_alloc("tile", (i * 37) % 1000)
    assert tracker.sizes == {"tile": 999}
    assert tracker.peak_elements == tracker.largest("ti") == 999
