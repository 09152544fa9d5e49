"""The kill-point chaos harness, run at pytest scale.

The CI ``durability`` job runs hundreds of schedules through
``python -m repro.db.chaos``; here a smaller sweep keeps the harness
itself honest on every test run.
"""

from repro.db.chaos import (generate_workload, main, run_schedule,
                            run_schedules)


class TestWorkload:
    def test_deterministic(self):
        assert generate_workload(7, 50) == generate_workload(7, 50)

    def test_valid_in_order(self):
        # Applying the ops in sequence must never hit an invalid one.
        model = {}
        for op in generate_workload(11, 200):
            if op[0] == "create":
                assert op[1] not in model
                model[op[1]] = set()
            elif op[0] == "drop":
                assert op[1] in model
                del model[op[1]]
            elif op[0] == "insert":
                assert op[2] not in model[op[1]]
                model[op[1]].add(op[2])
            else:
                assert op[2] in model[op[1]]
                model[op[1]].discard(op[2])

    def test_mixes_op_kinds(self):
        kinds = {op[0] for op in generate_workload(3, 300)}
        assert kinds == {"create", "drop", "insert", "delete"}


class TestSchedules:
    def test_single_schedule_passes(self):
        outcome = run_schedule(2, num_ops=30)
        assert outcome.ok, outcome.error
        assert outcome.incarnations >= 1

    def test_sweep_passes_both_sync_modes(self):
        results = run_schedules(8, num_ops=25)
        assert all(outcome.ok for outcome in results), \
            [outcome.error for outcome in results if not outcome.ok]
        assert {outcome.sync for outcome in results} \
            == {"always", "batch"}
        # The sweep is only meaningful if kills actually happened.
        assert sum(outcome.kills for outcome in results) > 0

    def test_schedules_are_reproducible(self):
        first = run_schedule(5, num_ops=30)
        second = run_schedule(5, num_ops=30)
        assert (first.kills, first.incarnations, first.replayed,
                first.final_objects) \
            == (second.kills, second.incarnations, second.replayed,
                second.final_objects)

    def test_checkpoints_link_and_rewrite_bases(self):
        """Checkpoints hard-link the bases that are still on disk and
        rewrite the others (new relations, rent-or-buy)."""
        outcome = run_schedule(2, num_ops=40, checkpoint_every=2)
        assert outcome.ok, outcome.error
        assert outcome.kills > 0
        assert outcome.bases_linked > 0 and outcome.bases_written > 0

    def test_cli_exit_status(self, capsys):
        assert main(["--schedules", "2", "--ops", "15"]) == 0
        out = capsys.readouterr().out
        assert "2 schedules" in out
        assert "0 failures" in out


class TestDeltaIngest:
    """Every schedule writes through the relations' deltas and takes
    random rebuild points: crashes land before, during accumulation of,
    and after merges, and recovery must still converge on the model."""

    def test_single_delta_schedule_passes(self):
        outcome = run_schedule(2, num_ops=30)
        assert outcome.ok, outcome.error
        # Replayed writes stay pending until a rebuild point merges
        # them, so a schedule with kills also merges.
        assert outcome.kills > 0 and outcome.rebuilds > 0

    def test_delta_sweep_passes_and_merges(self):
        results = run_schedules(8, num_ops=25)
        assert all(outcome.ok for outcome in results), \
            [outcome.error for outcome in results if not outcome.ok]
        # Kills and mid-workload rebuild points both actually happened,
        # otherwise the sweep proves nothing about the delta path.
        assert sum(outcome.kills for outcome in results) > 0
        assert sum(outcome.rebuilds for outcome in results) > 0

    def test_delta_schedules_are_reproducible(self):
        first = run_schedule(5, num_ops=30)
        second = run_schedule(5, num_ops=30)
        assert (first.kills, first.incarnations, first.replayed,
                first.rebuilds, first.final_objects) \
            == (second.kills, second.incarnations, second.replayed,
                second.rebuilds, second.final_objects)

    def test_cli_delta_mode(self, capsys):
        """The CLI's one mode takes rebuild points and links bases; the
        verbose lines report both."""
        assert main(["--schedules", "2", "--ops", "15",
                     "--checkpoint-every", "2", "-v"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "rebuilds=2 bases=9w/5l" in out

    def test_outcomes_match_the_mode_string_harness(self):
        """Seed 5 as recorded from the harness's ``ingest="delta"``
        mode, before it became the only one: removing the mode switch
        changed how a schedule is selected, not what it does."""
        outcome = run_schedule(5, num_ops=30)
        assert (outcome.kills, outcome.incarnations, outcome.rebuilds) \
            == (1, 2, 2)
