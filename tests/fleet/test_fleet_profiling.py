"""Fleet profiling end to end: per-shard folded stacks, merged home.

The acceptance criterion this file pins: a fleet run with 2 workers
produces one ``shard-NNNN.folded`` profile per shard in the journal,
and the coordinator merges them (integer addition of sample counts)
into a single fleet-wide folded-stack profile — resume-safe, and
strictly advisory (a missing or torn profile degrades the merge,
never the run).
"""

from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, folded_path, journal_dir_for
from repro.fleet import generate_corpus_fleet
from repro.obs.profiling import merge_folded, read_folded


def _config(seed=11):
    return CorpusConfig(n_pipelines=6, seed=seed,
                        max_graphlets_per_pipeline=8,
                        max_window_spans=6)


class TestFleetProfiles:
    def test_two_workers_journal_and_merge_profiles(self, tmp_path):
        journal = journal_dir_for(tmp_path / "corpus.db")
        _, report = generate_corpus_fleet(
            _config(), workers=2, in_process=True,
            journal_dir=journal, profile=True)
        assert report.complete
        shard_profiles = [read_folded(folded_path(journal, i))
                          for i in range(2)]
        assert all(shard_profiles), "every shard journals a profile"
        assert report.profile_folded == merge_folded(*shard_profiles)
        assert report.profile_samples == sum(
            sum(p.values()) for p in shard_profiles)
        # Shard workers profile only themselves: simulation frames, not
        # pool plumbing.
        assert any("runtime" in stack or "generator" in stack
                   for stack in report.profile_folded)

    def test_profile_off_journals_nothing(self, tmp_path):
        journal = journal_dir_for(tmp_path / "corpus.db")
        _, report = generate_corpus_fleet(
            _config(), workers=2, in_process=True, journal_dir=journal)
        assert report.profile_folded == {}
        assert not list(journal.glob("shard-*.folded"))

    def test_resume_reloads_journaled_profiles(self, tmp_path):
        journal = journal_dir_for(tmp_path / "corpus.db")
        plan = FaultPlan.parse("worker_crash:1", seed=5)
        config = _config()
        _, report = generate_corpus_fleet(
            config, workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal, profile=True, max_attempts=1)
        assert report.failed_shards
        _, resumed = generate_corpus_fleet(
            config, workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal, resume=True, profile=True)
        assert resumed.complete
        assert resumed.resumed_shards > 0
        # Every shard contributes: the re-run ones sampled live, the
        # resumed ones reloaded their journaled .folded files.
        assert resumed.profile_samples >= report.profile_samples

    def test_resume_tolerates_profiles_from_unprofiled_run(self, tmp_path):
        # The profile flag is deliberately outside the journal
        # fingerprint: an unprofiled journal resumes fine under
        # profiling (completed shards just contribute no samples).
        journal = journal_dir_for(tmp_path / "corpus.db")
        plan = FaultPlan.parse("worker_crash:1", seed=5)
        config = _config()
        _, report = generate_corpus_fleet(
            config, workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal, max_attempts=1)
        assert report.failed_shards
        _, resumed = generate_corpus_fleet(
            config, workers=3, in_process=True, fault_plan=plan,
            journal_dir=journal, resume=True, profile=True)
        assert resumed.complete
