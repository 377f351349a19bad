"""Tests for the MediaBench-like workload suite.

Fast checks cover every workload (assembly validity, embedding,
delay-slot discipline); execution checks run a representative subset so
the suite stays quick - the full sweep lives in the benchmarks.
"""

import pytest

from repro.cpu import CheckedCore, FastCore
from repro.workloads import ALL_WORKLOADS, WORKLOADS, iter_analysis_targets
from repro.workloads.gen import byte_directive, data_words, word_directive
from repro.workloads.runner import measure_suite, measure_workload

EXECUTED_SUBSET = ("adpcm_enc", "gsm", "rasta")


class TestSuiteStructure:
    def test_thirteen_workloads(self):
        assert len(ALL_WORKLOADS) == 13
        assert set(WORKLOADS) == {
            "adpcm_enc", "adpcm_dec", "epic", "g721_enc", "g721_dec", "gs",
            "gsm", "jpeg_enc", "jpeg_dec", "mesa", "mpeg2", "pegwit", "rasta",
        }

    def test_iter_analysis_targets_resolves_names(self, tmp_path,
                                                  monkeypatch):
        # Bundled names resolve to their Workload; paths pass through.
        targets = list(iter_analysis_targets(("mpeg2", "foo.aro")))
        assert targets[0] == ("mpeg2", WORKLOADS["mpeg2"])
        assert targets[1] == ("foo.aro", None)
        # A file on disk shadows a same-named bundled workload.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rasta").write_text("")
        assert list(iter_analysis_targets(("rasta",))) == [("rasta", None)]
        # all_workloads appends the whole suite in order.
        suite = list(iter_analysis_targets(all_workloads=True))
        assert [name for name, __ in suite] == [
            wl.name for wl in ALL_WORKLOADS]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_assembles(self, name):
        program = WORKLOADS[name].build_base()
        assert len(program.words) > 20
        assert "result" in program.labels

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_embeds(self, name):
        embedded = WORKLOADS[name].build_embedded()
        assert embedded.sigs_added > 0
        assert 0.0 < embedded.static_overhead < 0.20

    def test_descriptions_present(self):
        for workload in ALL_WORKLOADS:
            assert workload.description


class TestExecution:
    @pytest.mark.parametrize("name", EXECUTED_SUBSET)
    def test_base_and_embedded_agree(self, name):
        workload = WORKLOADS[name]
        measurement = measure_workload(workload, ways=1)
        assert measurement.checksum != 0
        assert measurement.embedded_instructions >= measurement.base_instructions
        assert 0.0 <= measurement.dynamic_overhead < 0.12

    def test_checked_core_matches_fast_core(self):
        workload = WORKLOADS["adpcm_enc"]
        embedded = workload.build_embedded()
        fast = FastCore(embedded.program)
        fast.run()
        checked = CheckedCore(embedded, detect=True)
        checked.run()
        address = workload.result_address(embedded.program)
        assert checked.load_word(address) == fast.load_word(address)

    def test_dynamic_overhead_below_static(self):
        """Sec 4.4: inner loops embed DCSs in unused bits, so the dynamic
        overhead sits below the static overhead."""
        measurement = measure_workload(WORKLOADS["adpcm_enc"], ways=1)
        assert measurement.dynamic_overhead < measurement.static_overhead

    def test_cpi_in_paper_band(self):
        """Sec 4.4: an average instruction takes 1.1-1.7 cycles."""
        workload = WORKLOADS["gsm"]
        program = workload.build_base()
        core = FastCore(program)
        result = core.run()
        assert 1.05 < result.cpi < 1.8

    def test_auto_workers_follow_the_campaign_rule(self, monkeypatch):
        """``workers=0`` sizes the figure pool as campaigns size theirs."""
        import repro.runner.pool

        calls = []
        monkeypatch.setattr(repro.runner.pool, "default_workers",
                            lambda: calls.append(0) or 1)
        assert measure_suite([], workers=0) == []
        assert calls == [0]


class TestGenerators:
    def test_data_words_deterministic(self):
        assert data_words(5, 10) == data_words(5, 10)
        assert data_words(5, 10) != data_words(6, 10)

    def test_data_words_range(self):
        values = data_words(1, 100, lo=-4, hi=4)
        assert all(-4 <= v <= 4 for v in values)

    def test_word_directive_format(self):
        text = word_directive([1, 2, 3], per_line=2)
        assert text.splitlines() == ["        .word 1, 2", "        .word 3"]

    def test_byte_directive_masks(self):
        assert ".byte 255" in byte_directive([-1])
