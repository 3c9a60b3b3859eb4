import types

from bench_e2e.ledger import Ledger
from bench_e2e.trace import Tracer


def _bare_ledger():
    ledger = Ledger.__new__(Ledger)
    ledger.values, ledger.reasons, ledger.tracer = {}, {}, Tracer()
    return ledger


def test_guarded_probe_reports_null_on_a_missing_attribute():
    ledger = _bare_ledger()
    program = types.SimpleNamespace()          # a later PR deleted .compute_partial

    def probe():
        return {"serve.cluster.partial_us": program.compute_partial()}

    ledger.probe(["serve.cluster.partial_us", "serve.cluster.merge_us"], probe)
    assert ledger.values == {
        "serve.cluster.partial_us": None, "serve.cluster.merge_us": None,
    }
    assert ledger.reasons["serve.cluster.partial_us"].startswith("probe_unavailable")


def test_guarded_probe_covers_import_and_signature_changes():
    ledger = _bare_ledger()

    def gone():
        from repro.serve.cluster import NoSuchThing  # noqa: F401

    def reshaped():
        return {"x": len(1, 2)}

    ledger.probe(["a"], gone)
    ledger.probe(["x"], reshaped)
    assert ledger.values == {"a": None, "x": None}


def test_probe_keeps_what_it_measured_and_flags_what_it_did_not():
    ledger = _bare_ledger()
    ledger.probe(["a", "b"], lambda: {"a": 1.5})
    assert ledger.values == {"a": 1.5, "b": None}
    assert "a" not in ledger.reasons and "b" in ledger.reasons


def test_a_real_failure_is_not_swallowed():
    ledger = _bare_ledger()

    def broken():
        raise ZeroDivisionError

    try:
        ledger.probe(["a"], broken)
    except ZeroDivisionError:
        return
    raise AssertionError("a bug in a probe must fail loudly, not read as null")
