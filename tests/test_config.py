"""Tests for repro.config."""

import dataclasses

import pytest

from repro.config import LifeguardFlags, SwimConfig


class TestLifeguardFlags:
    def test_defaults_all_disabled(self):
        flags = LifeguardFlags()
        assert not flags.lha_probe
        assert not flags.lha_suspicion
        assert not flags.buddy_system
        assert not flags.any_enabled

    def test_swim_constructor(self):
        assert LifeguardFlags.swim() == LifeguardFlags()

    def test_lifeguard_constructor_enables_everything(self):
        flags = LifeguardFlags.lifeguard()
        assert flags.lha_probe and flags.lha_suspicion and flags.buddy_system
        assert flags.any_enabled

    def test_partial_flags(self):
        flags = LifeguardFlags(lha_suspicion=True)
        assert flags.any_enabled
        assert not flags.lha_probe

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LifeguardFlags().lha_probe = True


class TestSwimConfigDefaults:
    def test_paper_defaults(self):
        config = SwimConfig()
        assert config.probe_interval == 1.0
        assert config.probe_timeout == 0.5
        assert config.lhm_max == 8
        assert config.suspicion_k == 3
        assert config.nack_timeout_fraction == 0.8
        assert config.indirect_probes == 3

    def test_swim_baseline_equivalent_to_alpha5_beta1(self):
        config = SwimConfig.swim_baseline()
        assert config.suspicion_alpha == 5.0
        assert config.suspicion_beta == 1.0
        assert not config.flags.any_enabled

    def test_lifeguard_defaults(self):
        config = SwimConfig.lifeguard()
        assert config.suspicion_alpha == 5.0
        assert config.suspicion_beta == 6.0
        assert config.flags.lha_probe
        assert config.flags.lha_suspicion
        assert config.flags.buddy_system

    def test_lifeguard_tuning(self):
        config = SwimConfig.lifeguard(alpha=2.0, beta=4.0)
        assert config.suspicion_alpha == 2.0
        assert config.suspicion_beta == 4.0

    def test_constructor_overrides(self):
        config = SwimConfig.lifeguard(probe_interval=0.5, probe_timeout=0.25)
        assert config.probe_interval == 0.5
        assert config.probe_timeout == 0.25

    def test_replace(self):
        config = SwimConfig()
        other = config.replace(gossip_fanout=5)
        assert other.gossip_fanout == 5
        assert config.gossip_fanout == 3  # original untouched

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SwimConfig().probe_interval = 2.0


class TestSwimConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(probe_interval=0.0),
            dict(probe_interval=-1.0),
            dict(probe_timeout=0.0),
            dict(probe_timeout=2.0),  # exceeds probe_interval
            dict(indirect_probes=-1),
            dict(suspicion_alpha=0.0),
            dict(suspicion_beta=0.5),
            dict(suspicion_k=-1),
            dict(lhm_max=-1),
            dict(nack_timeout_fraction=0.0),
            dict(nack_timeout_fraction=1.0),
            dict(retransmit_mult=0),
            dict(gossip_interval=0.0),
            dict(gossip_fanout=0),
            dict(max_packet_size=64),
            dict(reliable_pool_size=0),
            dict(reliable_idle_timeout=0.0),
            dict(reliable_connect_timeout=0.0),
            dict(reliable_connect_retries=-1),
            dict(reliable_backoff_base=0.0),
            dict(reliable_backoff_base=0.5, reliable_backoff_max=0.1),
            dict(reliable_failure_window=0.0),
            dict(reliable_failure_peer_threshold=0),
            dict(transport_backend="bogus"),
            dict(transport_backend="uvloop"),  # retired backend name
            dict(transport_backend=""),
            dict(transport_batch_size=0),
            dict(transport_batch_size=-4),
            dict(transport_batch_size=2048),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SwimConfig(**kwargs)

    def test_timeout_may_equal_interval(self):
        config = SwimConfig(probe_interval=0.5, probe_timeout=0.5)
        assert config.probe_timeout == 0.5

    def test_beta_one_allowed(self):
        assert SwimConfig(suspicion_beta=1.0).suspicion_beta == 1.0

    @pytest.mark.parametrize("backend", ["asyncio", "batched"])
    def test_known_transport_backends_accepted(self, backend):
        config = SwimConfig(transport_backend=backend)
        assert config.transport_backend == backend

    def test_transport_batch_size_bounds(self):
        assert SwimConfig(transport_batch_size=1).transport_batch_size == 1
        assert SwimConfig(transport_batch_size=1024).transport_batch_size == 1024
