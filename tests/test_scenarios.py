import textwrap

import pytest

from ammflow.engine import net_deltas, trace_to_json
from ammflow.graph import trace_canonical_form
from ammflow.scenarios import (ConfigError, build_benign_twin,
                               build_peb_scenario,
                               build_relocation_scenario, library,
                               load_scenario_config)
from conftest import PEB_PARAMS, library_relocations


def nonzero_deltas(trace):
    return {k: v for k, v in net_deltas(trace).items() if v != 0}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(library()))
    def test_byte_identical_replay(self, name):
        factory = library()[name]
        run1, run2 = factory(), factory()
        _, trace1 = run1.execute()
        _, trace2 = run2.execute()
        assert trace_to_json(trace1, run1.world.mode) == \
            trace_to_json(trace2, run2.world.mode)


class TestPebVariantEquivalence:
    @pytest.mark.parametrize("making,taking,reserves,fee", PEB_PARAMS)
    def test_net_deltas_identical(self, making, taking, reserves, fee):
        loan = build_peb_scenario(name="v", variant="flash_loan",
                                  making=making, taking=taking,
                                  pool_reserves=reserves, fee_bps=fee)
        swap = build_peb_scenario(name="v", variant="flash_swap",
                                  making=making, taking=taking,
                                  pool_reserves=reserves, fee_bps=fee)
        _, trace_loan = loan.execute()
        _, trace_swap = swap.execute()
        assert nonzero_deltas(trace_loan) == nonzero_deltas(trace_swap)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            build_peb_scenario(name="v", variant="teleport")

    def test_receiver_equals_maker_degenerate(self):
        run = build_peb_scenario(name="v", receiver="P")
        _, trace = run.execute()
        deltas = net_deltas(trace)
        assert deltas[("P", "USDC")] < 0
        assert deltas[("P", "DAI")] > 0


class TestBenignTwin:
    @pytest.mark.parametrize("run", library_relocations(),
                             ids=lambda run: run.name)
    def test_twin_is_isomorphic(self, run):
        twin = build_benign_twin(run)
        _, trace = run.execute()
        _, twin_trace = twin.execute()
        assert trace_canonical_form(trace) == trace_canonical_form(twin_trace)
        assert {"P", "B", "O"} & set(
            e.src for e in twin_trace.events) == set()

    @pytest.mark.parametrize("run", library_relocations(),
                             ids=lambda run: run.name)
    def test_perturbed_twin_breaks_isomorphism(self, run):
        perturbed = build_benign_twin(run, perturb=True)
        _, trace = run.execute()
        _, perturbed_trace = perturbed.execute()
        assert trace_canonical_form(trace) != \
            trace_canonical_form(perturbed_trace)

    def test_twin_requires_relocation(self):
        with pytest.raises(ConfigError):
            build_benign_twin(build_peb_scenario(name="v"))


class TestOperatorIsPrincipal:
    def test_direct_edge_exists_but_value_migrates(self):
        run = build_relocation_scenario(name="s",
                                        operator_is_principal=True)
        _, trace = run.execute()
        deltas = net_deltas(trace)
        assert deltas[("P", "TOKA")] == -10
        assert deltas[("B", "TOKA")] == 10
        assert any(e.src == "P" and e.dst == "B" for e in trace.events)


class TestConfigLoading:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(textwrap.dedent(text), encoding="utf-8")
        return str(path)

    def test_valid_relocation_config(self, tmp_path):
        path = self.write(tmp_path, """\
            schema_version: 1
            scenario: custom
            recipe: RelocationZeroFee
            params:
              a: "5"
            pools:
              - id: pool1
                reserve0: "200"
                reserve1: "200"
              - id: pool2
                reserve0: "200"
                reserve1: "200"
            """)
        run = load_scenario_config(path)
        _, trace = run.execute()
        assert net_deltas(trace)[("B", "TOKA")] == 5

    def test_missing_schema_version(self, tmp_path):
        path = self.write(tmp_path, """\
            scenario: custom
            recipe: RelocationZeroFee
            """)
        with pytest.raises(ConfigError, match="schema_version"):
            load_scenario_config(path)

    def test_unknown_recipe(self, tmp_path):
        path = self.write(tmp_path, """\
            schema_version: 1
            scenario: custom
            recipe: Nonsense
            """)
        with pytest.raises(ConfigError, match="recipe"):
            load_scenario_config(path)

    def test_amount_must_be_string(self, tmp_path):
        path = self.write(tmp_path, """\
            schema_version: 1
            scenario: custom
            recipe: RelocationZeroFee
            params:
              a: 5
            """)
        with pytest.raises(ConfigError, match="decimal string"):
            load_scenario_config(path)

    @pytest.mark.parametrize("recipe,key", [
        ("RelocationZeroFee", "operator_is_principal"),
        ("PEBLimitOrder", "route_via_settlement")])
    def test_flag_must_be_a_yaml_boolean(self, tmp_path, recipe, key):
        path = self.write(tmp_path, f"""\
            schema_version: 1
            scenario: custom
            recipe: {recipe}
            params:
              {key}: "false"
            """)
        with pytest.raises(ConfigError, match="true or false"):
            load_scenario_config(path)

    def test_unread_param_key_rejected(self, tmp_path):
        path = self.write(tmp_path, """\
            schema_version: 1
            scenario: custom
            recipe: PEBLimitOrder
            params:
              fee_bp: 30
            """)
        with pytest.raises(ConfigError, match="fee_bp"):
            load_scenario_config(path)

    def test_list_valued_fee_rejected(self, tmp_path):
        path = self.write(tmp_path, """\
            schema_version: 1
            scenario: custom
            recipe: RelocationZeroFee
            params:
              fee_bps: [1]
            """)
        with pytest.raises(ConfigError, match="bad scenario parameters"):
            load_scenario_config(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_config(str(path))

    def test_shipped_configs_all_load(self):
        from importlib import resources
        configs = resources.files("ammflow") / "configs"
        names = [p.name for p in configs.iterdir()
                 if p.name.endswith(".yaml")]
        assert len(names) >= 8
        for name in sorted(names):
            run = load_scenario_config(str(configs / name))
            _, trace = run.execute()
            assert trace.events
