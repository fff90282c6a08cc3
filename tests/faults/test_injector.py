"""Runtime fault injection: routing decisions, crash/stall scheduling."""


from repro.faults import ChannelFaultSpec, FaultInjector, FaultPlan, Partition
from repro.sim import System


def _routes(injector, n=200, control=True):
    return [injector.route(0, 1, control, now=float(i)) for i in range(n)]


class TestRoute:
    def test_quiet_plan_is_a_passthrough(self):
        inj = FaultInjector(FaultPlan())
        assert _routes(inj, n=50) == [[0.0]] * 50
        assert all(v == 0 for v in inj.summary().values())

    def test_route_decisions_are_seed_deterministic(self):
        plan = FaultPlan(
            seed=11,
            default_channel=ChannelFaultSpec(
                drop_rate=0.3, duplicate_rate=0.2,
                delay_spike_rate=0.2, delay_spike=5.0,
                reorder_rate=0.2, reorder_window=3.0,
            ),
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert _routes(a) == _routes(b)
        assert a.summary() == b.summary()
        c = FaultInjector(
            FaultPlan(seed=12, default_channel=plan.default_channel)
        )
        assert _routes(c) != _routes(a)

    def test_drop_and_duplicate_copy_counts(self):
        inj = FaultInjector(
            FaultPlan(
                seed=1,
                default_channel=ChannelFaultSpec(
                    drop_rate=0.25, duplicate_rate=0.25
                ),
            )
        )
        verdicts = _routes(inj, n=400)
        dropped = sum(1 for v in verdicts if v == [])
        doubled = sum(1 for v in verdicts if len(v) == 2)
        assert dropped == inj.summary()["drops"]
        assert doubled == inj.summary()["duplicates"]
        # with 400 trials at 25% each, both fire well away from 0 and 400
        assert 50 < dropped < 200
        assert 30 < doubled < 200

    def test_scope_restricts_injection(self):
        inj = FaultInjector(FaultPlan.lossy(1.0, scope="control"))
        assert inj.route(0, 1, control=True, now=0.0) == []
        assert inj.route(0, 1, control=False, now=0.0) == [0.0]

    def test_delay_spike_adds_exactly_the_spike(self):
        inj = FaultInjector(
            FaultPlan(
                default_channel=ChannelFaultSpec(
                    delay_spike_rate=1.0, delay_spike=7.5
                ),
            )
        )
        assert inj.route(0, 1, True, now=0.0) == [7.5]

    def test_reorder_holdback_within_window(self):
        inj = FaultInjector(
            FaultPlan(
                seed=3,
                default_channel=ChannelFaultSpec(
                    reorder_rate=1.0, reorder_window=2.0
                ),
            )
        )
        for verdict in _routes(inj, n=50):
            (extra,) = verdict
            assert 0.0 <= extra <= 2.0

    def test_partition_drops_only_inside_window(self):
        plan = FaultPlan(
            partitions=(Partition([0], [1], start=10.0, end=20.0),),
        )
        inj = FaultInjector(plan)
        assert inj.route(0, 1, True, now=5.0) == [0.0]
        assert inj.route(0, 1, True, now=15.0) == []
        assert inj.route(1, 0, True, now=15.0) == []
        assert inj.route(0, 1, True, now=25.0) == [0.0]
        assert inj.summary()["partition_drops"] == 2


class TestProcessFaults:
    @staticmethod
    def _ticker(total=10.0, step=1.0):
        def prog(ctx):
            t = 0.0
            while t < total:
                yield ctx.compute(step)
                t += step
                yield ctx.set(t=t)

        return prog

    def test_crash_freezes_the_process(self):
        plan = FaultPlan(crashes={1: 3.5})
        result = System(
            [self._ticker(), self._ticker()],
            start_vars=[{"t": 0.0}, {"t": 0.0}],
            faults=plan,
        ).run()
        assert result.crashed == {1: 3.5}
        assert result.faults["crashes"] == 1
        dep = result.deposet
        # proc 0 ran to completion; proc 1 froze at its last committed state
        assert dep.proc_states(0)[-1]["t"] == 10.0
        assert dep.proc_states(1)[-1]["t"] == 3.0

    def test_stall_delays_but_does_not_kill(self):
        plan = FaultPlan(stalls={0: (2.5, 4.0)})
        result = System(
            [self._ticker(total=5.0)], start_vars=[{"t": 0.0}], faults=plan,
        ).run()
        assert not result.crashed
        assert result.faults["stalls"] == 1
        assert result.deposet.proc_states(0)[-1]["t"] == 5.0
        # the run pays (most of) the stall in wall-clock on top of the 5 steps
        assert 8.0 <= result.duration <= 9.0

    def test_messages_to_crashed_process_are_dropped(self):
        def sender(ctx):
            yield ctx.compute(5.0)
            yield ctx.send(1, "late")
            yield ctx.set(done=True)

        def receiver(ctx):
            yield ctx.receive()
            yield ctx.set(got=True)

        result = System(
            [sender, receiver],
            start_vars=[{"done": False}, {"got": False}],
            faults=FaultPlan(crashes={1: 1.0}),
        ).run()
        assert not result.deadlocked  # crashed waiters don't count as blocked
        assert result.deposet.proc_states(1)[-1]["got"] is False

    def test_same_seed_same_run(self):
        plan = FaultPlan.lossy(0.3, seed=9, scope="all")

        def make():
            return System(
                [self._ticker(), self._ticker()],
                start_vars=[{"t": 0.0}, {"t": 0.0}],
                faults=plan,
                seed=4,
            ).run()

        a, b = make(), make()
        assert a.faults == b.faults
        assert a.deposet == b.deposet
        assert a.duration == b.duration


class TestMessageFaults:
    def test_duplicated_app_messages_are_received_once(self):
        """A duplicated application message is one send and one receive:
        the extra copy is suppressed at the receiver, not recorded as a
        second receive of the same send (D3)."""
        rounds = 4

        def ring(ctx):
            for k in range(rounds):
                yield ctx.compute(float(ctx.rng.uniform(0.5, 1.5)))
                yield ctx.send((ctx.proc + 1) % ctx.n, k)
            for _ in range(rounds):
                yield ctx.receive()

        for seed in range(5):
            plan = FaultPlan(
                seed=seed,
                default_channel=ChannelFaultSpec(duplicate_rate=1.0, scope="app"),
            )
            result = System([ring] * 3, seed=seed, faults=plan).run()
            assert not result.deadlocked
            assert result.faults["duplicates"] == result.app_messages == 3 * rounds
            messages = result.deposet.messages
            assert len(messages) == result.app_messages
            assert len({m.src for m in messages}) == len(messages)
            assert len({m.dst for m in messages}) == len(messages)
