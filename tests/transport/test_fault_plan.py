"""Fault-plan model and its enforcement at the real transport boundary.

The declarative half (:mod:`repro.faults`) is pure logic; the
enforcement half runs real sockets across the backend parity matrix
(``backend`` fixture): loss and partition windows must behave
identically on the stock asyncio path and the batched fast path.
"""

import asyncio
import time

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultWindow
from tests.transport.conftest import make_transport


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultWindow("jitter", 0.0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            FaultWindow("loss", 0.0, 1.0, rate=0.0)
        with pytest.raises(ValueError, match="peer"):
            FaultWindow("partition", 0.0, 1.0)
        with pytest.raises(ValueError, match="end"):
            FaultWindow("loss", 2.0, 1.0, rate=0.5)

    def test_round_trip(self):
        window = FaultWindow("partition", 1.0, 4.0, peers=("a:1", "b:2"))
        assert FaultWindow.from_dict(window.as_dict()) == window


class TestFaultPlan:
    def test_json_and_file_round_trip(self, tmp_path):
        plan = FaultPlan(
            windows=(FaultWindow("loss", 0.0, 5.0, rate=0.25),),
            epoch=1234.5,
            seed=42,
        )
        assert FaultPlan.loads(plan.dumps()) == plan
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert FaultPlan.load(path) == plan


class TestFaultInjector:
    def test_loss_is_probabilistic_within_window(self):
        plan = FaultPlan(
            windows=(FaultWindow("loss", 0.0, 10.0, rate=0.5),), epoch=0.0
        )
        injector = FaultInjector(plan)
        drops = sum(
            injector.drop_datagram("p:1", now=5.0, outbound=True)
            for _ in range(2000)
        )
        assert 700 < drops < 1300  # ~50%, generous bounds
        assert injector.dropped_out == drops

    def test_loss_inactive_outside_window(self):
        plan = FaultPlan(
            windows=(FaultWindow("loss", 5.0, 10.0, rate=1.0),), epoch=100.0
        )
        injector = FaultInjector(plan)
        assert not injector.drop_datagram("p:1", now=100.0, outbound=True)
        assert injector.drop_datagram("p:1", now=107.0, outbound=True)
        assert not injector.drop_datagram("p:1", now=111.0, outbound=True)

    def test_partition_drops_only_listed_peers(self):
        plan = FaultPlan(
            windows=(
                FaultWindow("partition", 0.0, 10.0, peers=("cut:1",)),
            ),
            epoch=0.0,
        )
        injector = FaultInjector(plan)
        assert injector.drop_datagram("cut:1", now=1.0, outbound=False)
        assert not injector.drop_datagram("ok:2", now=1.0, outbound=False)
        assert injector.block_reliable("cut:1", now=1.0)
        assert not injector.block_reliable("ok:2", now=1.0)
        assert not injector.block_reliable("cut:1", now=11.0)


async def _exchange(sender, receiver, payload=b"ping", tries=5, wait=0.3):
    """Send ``tries`` datagrams; return how many arrived."""
    got = []
    receiver.bind(lambda data, src, reliable: got.append(bytes(data)))
    for _ in range(tries):
        sender.send(receiver.local_address, payload)
    await asyncio.sleep(wait)
    return len(got)


class TestTransportEnforcement:
    def test_partition_window_blocks_udp_both_ways(self, backend):
        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            try:
                plan = FaultPlan(
                    windows=(
                        FaultWindow(
                            "partition", 0.0, 60.0,
                            peers=(b.local_address,),
                        ),
                    ),
                    epoch=time.time(),
                )
                a.set_fault_plan(plan)
                assert await _exchange(a, b) == 0   # outbound cut
                assert await _exchange(b, a) == 0   # inbound cut
                a.set_fault_plan(None)
                assert await _exchange(a, b, tries=3) == 3
            finally:
                await a.close()
                await b.close()

        asyncio.run(scenario())

    def test_total_loss_window_drops_datagrams(self, backend):
        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            try:
                a.set_fault_plan(
                    FaultPlan(
                        windows=(
                            FaultWindow("loss", 0.0, 60.0, rate=1.0),
                        ),
                        epoch=time.time(),
                    )
                )
                assert await _exchange(a, b) == 0
                assert a.fault_injector.dropped_out == 5
            finally:
                await a.close()
                await b.close()

        asyncio.run(scenario())

    def test_partition_blocks_reliable_and_reports_failure(self, backend):
        async def scenario():
            a = await make_transport(backend)
            b = await make_transport(backend)
            try:
                failures = []
                a.on_reliable_failure = failures.append
                a.set_fault_plan(
                    FaultPlan(
                        windows=(
                            FaultWindow(
                                "partition", 0.0, 60.0,
                                peers=(b.local_address,),
                            ),
                        ),
                        epoch=time.time(),
                    )
                )
                got = []
                b.bind(lambda data, src, reliable: got.append(data))
                a.send(b.local_address, b"sync", reliable=True)
                await asyncio.sleep(0.3)
                assert got == []
                assert failures == [b.local_address]
            finally:
                await a.close()
                await b.close()

        asyncio.run(scenario())
