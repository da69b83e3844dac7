import re
import textwrap

import pytest

from ammflow.engine import (INFRA_LABELS, Address, WorldState, execute_bundle,
                            net_deltas, trace_to_json)
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

    @pytest.mark.parametrize("run", library_relocations(),
                             ids=lambda run: run.name)
    def test_twin_world_matches_one_built_by_the_setters(self, run):
        # the twin renames the relocation world's dicts as they stand; a
        # world built address by address through the checked setters is
        # the same world, and it runs the twin's bundle the same way
        twin = build_benign_twin(run)
        mapping = {run.principal: "treasury", run.initiator: "trader",
                   run.beneficiary: "collect"}
        assets = {asset.symbol: asset for pool in run.world.pools.values()
                  for asset in (pool.asset0, pool.asset1)}
        built = WorldState(run.world.mode)
        for aid, addr in run.world.addresses.items():
            if aid not in run.world.pools:
                built.add_address(Address(
                    mapping.get(aid, aid), addr.label
                    if addr.label in INFRA_LABELS else "Unlabeled"))
        for pool in run.world.pools.values():
            built.add_pool(pool)
        for (aid, sym), amount in run.world.balances.items():
            built.set_balance(mapping.get(aid, aid), assets[sym], amount)
        for (owner, spender, sym), amount in run.world.allowances.items():
            built.approve(mapping.get(owner, owner),
                          mapping.get(spender, spender), assets[sym], amount)
        for name in WorldState.__slots__:
            assert getattr(twin.world, name) == getattr(built, name), name
        after, trace = twin.execute()
        built_after, built_trace = execute_bundle(
            built, twin.bundle, twin.initiator, bundle_id=twin.name)
        assert trace_to_json(trace, after.mode) == \
            trace_to_json(built_trace, built_after.mode)
        assert trace_canonical_form(trace) == \
            trace_canonical_form(built_trace)
        for name in WorldState.__slots__:
            assert getattr(after, name) == getattr(built_after, name), name

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
        with pytest.raises(ConfigError, match="params.a must be a string"):
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
        with pytest.raises(ConfigError,
                           match=re.escape("params.fee_bps must be an int")):
            load_scenario_config(path)

    @pytest.mark.parametrize("recipe, tail, message", [
        ("RelocationZeroFee", "paramz: {numeric_mode: integer}\n",
         "unknown key paramz"),
        ("RelocationZeroFee",
         "pools:\n  - {id: [1], reserve0: '1', reserve1: '1'}\n",
         "pools.0.id must be one of ('pool1', 'pool2'), got [1]"),
        ("RelocationZeroFee",
         "pools:\n  - {id: poolX, reserve0: '1', reserve1: '1'}\n",
         "pools.0.id must be one of ('pool1', 'pool2'), got 'poolX'"),
        ("RelocationFeeCalibrated",
         "pools:\n  - {id: pool1, reserve0: '1', reserve1: '1'}\n",
         "pools.0.id must be one of (), got 'pool1'"),
        ("RelocationZeroFee",
         "pools:\n  - {id: pool1, reserve0: '1', reserve1: '1'}\n"
         "  - {id: pool1, reserve0: '2', reserve1: '1'}\n",
         "pool pool1 is listed twice"),
        ("PEBLimitOrder",
         "pools:\n  - {id: pool, reserve0: '1', reserve1: '1', fee: 3}\n",
         "unknown key pools.0.fee"),
        ("PEBLimitOrder", "params: {receiver: 5}\n",
         "params.receiver must be a string, got 5"),
        ("PEBLimitOrder", "params: {receiver: null}\n",
         "params.receiver must be a string, got None"),
    ], ids=["top-level typo", "list id", "unread id", "pool for no pool",
            "repeated id", "pool key typo", "int receiver", "null receiver"])
    def test_every_key_is_read_or_refused(self, tmp_path, recipe, tail,
                                          message):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"schema_version: 1\nscenario: custom\n"
                        f"recipe: {recipe}\n{tail}", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_scenario_config(str(path))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_config(str(path))

    def test_each_shipped_config_is_its_library_row(self):
        import yaml
        from importlib import resources
        from ammflow.scenarios import _LIBRARY
        rows = {row["scenario"]: row for row in _LIBRARY}
        for path in (resources.files("ammflow") / "configs").iterdir():
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
            assert rows.pop(data["scenario"]) == data, path.name
        assert rows == {}

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
