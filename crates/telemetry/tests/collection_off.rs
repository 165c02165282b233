//! The collection-off half of the telemetry contract. Collection is a
//! process-wide switch, so these checks run as the only test in their
//! own binary: switching it off here cannot race a sibling test that
//! relies on `capture` collecting.

use oftec_telemetry as telemetry;
use oftec_telemetry::Counter;

#[test]
fn collection_off_records_nothing_but_instance_counters_still_count() {
    // A disabled capture runs its closure transparently and records
    // nothing.
    telemetry::set_collecting(false);
    let (r, buf) = telemetry::capture(|| {
        telemetry::counter_add("x", 5);
        let _s = telemetry::span("nothing");
        7
    });
    assert_eq!(r, 7);
    assert!(buf.is_empty());

    // A per-instance counter counts with collection off, and mirrors
    // into the registry once it is on.
    let c = Counter::new("test.counter");
    c.add(2);
    c.add(3);
    assert_eq!(c.get(), 5);
    telemetry::set_collecting(true);
    let (_, buf) = telemetry::capture(|| c.add(4));
    assert_eq!(c.get(), 9);
    assert_eq!(buf.counter("test.counter"), 4);
}
