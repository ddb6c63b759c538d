"""Per-tenant resource accounting: conservation and the chargeback report."""

import threading

import pytest

from repro.obs import ResourceAccountant, TenantLedger
from repro.obs.accounting import OUTCOME_FIELDS, RESOURCE_FIELDS


def usage(modeled=1.0, compute=0.4, network=0.6, shuffled=1e6, flops=2e6):
    return {
        "modeled_seconds": modeled,
        "compute_seconds": compute,
        "network_seconds": network,
        "shuffled_bytes": shuffled,
        "flops": flops,
    }


class TestLedgerBasics:
    def test_fresh_ledger_is_zero(self):
        ledger = TenantLedger("t")
        snap = ledger.snapshot()
        for name in OUTCOME_FIELDS:
            assert snap[name] == 0
        assert snap["usage"] == snap["charged"] == {
            name: 0.0 for name in RESOURCE_FIELDS
        }

    def test_charge_query_accumulates_usage_and_charged(self):
        acct = ResourceAccountant()
        acct.record_submitted("t1")
        acct.charge_query("t1", usage=usage(), wall_seconds=0.25)
        acct.charge_query("t1", usage=usage(), wall_seconds=0.25)
        snap = acct.snapshot()["tenants"]["t1"]
        assert snap["submitted"] == 1 and snap["served"] == 2
        assert snap["usage"]["modeled_seconds"] == pytest.approx(2.0)
        assert snap["charged"] == snap["usage"]
        assert snap["wall_seconds"] == pytest.approx(0.5)

    def test_cache_hit_charges_wall_but_no_usage(self):
        acct = ResourceAccountant()
        acct.charge_query("t1", wall_seconds=0.1, from_cache=True)
        snap = acct.snapshot()["tenants"]["t1"]
        assert snap["cache_hits"] == 1
        assert snap["usage"]["modeled_seconds"] == 0.0

    def test_outcome_counters(self):
        acct = ResourceAccountant()
        acct.record_shed("t")
        acct.record_timed_out("t")
        acct.record_failed("t")
        snap = acct.snapshot()["tenants"]["t"]
        assert (snap["shed"], snap["timed_out"], snap["failed"]) == (1, 1, 1)


class TestConservation:
    def test_charged_totals_equal_usage_totals(self):
        """The invariant the chargeback report rests on: what tenants are
        charged is exactly what their executions used."""
        acct = ResourceAccountant()
        acct.charge_query("t1", usage=usage(modeled=3.0, shuffled=5e6))
        acct.charge_query("t2", usage=usage(modeled=1.0))
        acct.charge_query("t3", from_cache=True)
        totals = acct.totals()
        for name in RESOURCE_FIELDS:
            assert totals["charged"][name] == pytest.approx(
                totals["usage"][name]
            ), name

    def test_conservation_under_concurrency(self):
        acct = ResourceAccountant()

        def worker(tenant):
            for _ in range(50):
                acct.charge_query(tenant, usage=usage())
                acct.charge_query("shared", usage=usage())

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = acct.totals()
        for name in RESOURCE_FIELDS:
            assert totals["charged"][name] == pytest.approx(
                totals["usage"][name]
            )
        assert totals["served"] == 4 * 50 * 2


class TestChargebackReport:
    def test_render_has_tenant_rows_and_total(self):
        acct = ResourceAccountant()
        acct.charge_query("alice", usage=usage(modeled=1.0), wall_seconds=0.5)
        acct.charge_query("bob", usage=usage(modeled=1.0))
        acct.record_shed("carol")
        report = acct.render_chargeback()
        lines = report.splitlines()
        assert "chargeback report" in lines[0]
        assert lines[1].split()[:2] == ["tenant", "served"]
        body = "\n".join(lines[2:])
        for tenant in ("alice", "bob", "carol", "TOTAL"):
            assert tenant in body
        alice = next(line for line in lines if line.startswith("alice"))
        bob = next(line for line in lines if line.startswith("bob"))
        assert "1.0000" in alice and "1.0000" in bob

    def test_empty_book_renders(self):
        report = ResourceAccountant().render_chargeback()
        assert "TOTAL" in report
