"""The parity table: every public fast path is checked against an exhaustive
reference in pumc.oracle, and every other public function says why it has none.

PARITY maps a fast path to the oracle function it is compared with and the test
node that compares them. NOT_FAST_PATH maps each remaining public function of
pumc.__all__ and of the library modules to a one-line reason. A public function
in neither fails the first test, so a new fast path cannot land without a row.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pumc
from pumc import oracle

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("core", "puniform", "expfam", "netstat", "models", "ermgm", "simulate", "rng", "serialize")

_DYADIC_LAW = "tests/test_oracle.py::test_dyadic_model_matches_the_enumerated_simple_graph_law"
_JOINT_LAW = "tests/test_oracle.py::test_joint_log_pmfs_match_the_trajectory_law"
_IID_REPLAY = "tests/test_oracle.py::test_iid_replay_matches_the_trajectory_law"
_STAT_TABLES = "tests/test_netstat.py::test_stat_tables_match_pairwise_functions"

PARITY = {
    "ermgm.dyad_pmf": ("brute_union_law", _DYADIC_LAW),
    "ermgm.multigraph_log_pmf": ("brute_union_law", _DYADIC_LAW),
    "ermgm.sample_multigraphs": ("brute_union_law", _DYADIC_LAW),
    "ermgm.fast_log_partition": ("brute_partition", "tests/test_ermgm.py::test_fast_partition_closed_form_and_brute"),
    "ermgm.fast_log_partition_instrumented": (
        "brute_partition", "tests/test_acceptance.py::test_c05_partition_fast_path_matches_brute"),
    "ermgm.union_expfam": ("brute_union_law", "tests/test_ermgm.py::test_union_expfam_matches_brute_law"),
    "ermgm.union_log_probability": ("brute_union_law", "tests/test_oracle.py::test_brute_union_law_matches_closed_form"),
    "expfam.pmf": ("brute_union_law", "tests/test_ermgm.py::test_union_expfam_matches_brute_law"),
    "expfam.log_partition": ("brute_partition", "tests/test_oracle.py::test_brute_partition_matches_fast_path"),
    "expfam.row_log_partitions": (
        "brute_partition", "tests/test_oracle.py::test_row_log_partitions_match_brute_partition_per_row"),
    "expfam.mef_joint_log_pmf": ("enumerate_trajectory_law", _JOINT_LAW),
    "expfam.joint_log_pmf_from_counts": ("enumerate_trajectory_law", _JOINT_LAW),
    "netstat.density_stat_table": ("stat_density", _STAT_TABLES),
    "netstat.stability_stat_table": ("stat_stability", _STAT_TABLES),
    "netstat.edge_stat_counts": ("stat_stability", _STAT_TABLES),
    "puniform.iid_to_chain": ("enumerate_trajectory_law", _IID_REPLAY),
    "puniform.chain_to_iid": ("pushforward_z_law", _IID_REPLAY),
    "simulate.sample_chain": (
        "enumerate_trajectory_law", "tests/test_oracle.py::test_sample_chain_two_step_law_matches_the_enumeration"),
    "simulate.sample_puniform_chain": (
        "product_law", "tests/test_oracle.py::test_sample_puniform_chain_iid_coordinates_follow_mu_exactly"),
}

NOT_FAST_PATH = {
    "core.build_generic_space": "builder: a labelled space",
    "core.build_modular_space": "builder: residues mod n",
    "core.build_multigraph_space": "builder: G(n, t) with its size cap",
    "core.builtin_family": "builder: a named family as a formula",
    "core.identity_family": "builder: the identity formula",
    "core.invert_family": "kept for bench/traced.py, which wraps it",
    "core.is_symmetric_family": "theorem check: sigma_a(b) == sigma_b(a)",
    "core.canonical_dyads": "codec: the dyad order",
    "core.dyad_index": "codec: a dyad's position in that order",
    "core.num_dyads": "codec: n choose 2",
    "core.place_values": "codec: the base-(t+1) digit weights",
    "core.dyad_counts": "codec: vectorized StateSpace.decode, checked against it in test_core",
    "core.dyad_count_table": "codec: dyad_counts over the whole space",
    "core.edge_total_table": "codec: the digit sum of every state",
    "core.check_dense_budget": "guard: refuses a size x size table past the cap",
    "core.check_finite": "guard: refuses NaN and infinities",
    "core.distinct_entries": "helper: a broadcast view's entries once each",
    "core.magnitude": "helper: max(1, largest |entry|), the scale a tolerance applies at",
    "core.row_blocks": "helper: the row slices a size x size work table is walked in",
    "ermgm.from_factorization": "builder: a model from factored tables",
    "ermgm.to_expfam": "builder: materializes the model; the oracle's own input",
    "ermgm.sample_blocks": "sample_multigraphs in row blocks, which stack to its one-shot draws",
    "ermgm.mle_density_stability": "estimator: a closed form over edge_stat_counts, whose row holds",
    "expfam.affinely_independent_entries": "theorem check: the affine-independence hypothesis",
    "expfam.as_mef": "theorem check: promotes a CEF that passes mef_check",
    "expfam.cef_transition_matrix": "builder: P row by row as exp(logits - row_log_partitions)",
    "expfam.default_probes": "fixture: parameter probes per map kind",
    "expfam.expfam_to_mef": "builder: spreads an iid family along a permutation family",
    "expfam.gani_row_value_sets": "theorem check: per-row value sets of a scalar statistic",
    "expfam.grad_log_partition_fd": "theorem check: finite differences of log_partition",
    "expfam.kappa_tau_puniformity": "theorem check: p-uniform tables realize p-uniform matrices",
    "expfam.mean_parameter": "theorem check: row expectations agree and match the gradient",
    "expfam.mean_statistic": "definition: pmf(...).p @ tau over pmf's row",
    "expfam.mef_check": "theorem check: shared row log-partitions",
    "expfam.puniform_cef_to_expfam": "builder: the iid family of a p-uniform CEF",
    "expfam.transition_counts": "codec: the a -> b count matrix of a path",
    "expfam.validate_cef": "theorem check: the row normalizer survey",
    "models.density_chain": "fixture: the density chain",
    "models.density_mef": "fixture: the density MEF",
    "models.directed_pairs": "fixture: ordered vertex pairs",
    "models.directed_space": "fixture: directed graphs as bitmasks",
    "models.er_family": "fixture: the Erdos-Renyi family",
    "models.er_pmf": "fixture: the Erdos-Renyi pmf",
    "models.gani_cef": "fixture: the three-state CEF",
    "models.gani_space": "fixture: its three labels",
    "models.gani_two_row_mef": "fixture: the repaired three-state MEF",
    "models.modular_chain": "fixture: the modular chain",
    "models.reciprocity_cef": "fixture: the reciprocity CEF",
    "models.reciprocity_table": "fixture: checked pair by pair against stat_reciprocity",
    "models.stability_chain": "fixture: the stability chain",
    "models.stability_mef": "fixture: the stability MEF",
    "models.transitivity_cef": "fixture: the transitivity CEF",
    "models.transitivity_table": "fixture: checked pair by pair against stat_transitivity",
    "netstat.degree_sequence": "definition: weighted vertex degrees",
    "netstat.sorted_degree_sequence": "kept for bench/traced.py, which wraps it",
    "netstat.sorted_degree_table": "definition: checked state by state against sorted_degree_sequence",
    "netstat.stat_reciprocity": "definition: the per-pair statistic",
    "netstat.stat_transitivity": "definition: the per-pair statistic",
    "netstat.multigraph_union": "definition: the dyad-wise sum",
    "netstat.factor_dyadditive": "builder: per-dyad tables, verified over the probes",
    "netstat.factor_dyadically_multiplicative": "builder: per-dyad factors, verified over the probes",
    "netstat.iso_classes": "brute force already: every vertex bijection",
    "netstat.is_finitely_exchangeable": "theorem check: constant on every class",
    "netstat.is_relation_invariant": "theorem check: the family preserves the classes",
    "netstat.exchangeability_transfer": "theorem check: the exchangeability equivalence",
    "oracle.stat_density": "oracle reference: the per-pair density",
    "oracle.stat_stability": "oracle reference: the per-pair stability",
    "puniform.check_puniform": "theorem check: the defining condition",
    "puniform.check_triple": "theorem check: P = mu[sigma] entrywise",
    "puniform.detect_puniform": "detection: its witness is re-checked by check_triple",
    "puniform.detection_violation": "detection: the violating triple under the same matching",
    "puniform.induced_function": "theorem check: induced maps are distinct",
    "puniform.symmetry_transfer_check": "theorem check: the symmetry transfer",
    "rng.inverse_cdf": "sampler kernel: reached through the sampler rows",
    "rng.stream": "random source: seeded lanes",
    "simulate.convergence_report": "diagnostic: running means against a target",
    "simulate.stability_transition_matrix": "builder: stability_chain(n, p).matrix()",
    "simulate.stationary_distribution": "solver: power iteration with its own residual",
    "simulate.trace_and_limit_checks": "theorem check: the stability matrix facts",
    "serialize.dumps": "codec: JSON text with 17 significant digits on every float",
    "serialize.dump": "codec: dumps(obj, indent=2) written a dict entry at a time",
    "serialize.load_json": "codec: a JSON file's value, exactly as json.load gives it",
    "serialize.space_to_dict": "codec: a space's header",
    "serialize.space_from_dict": "codec: reads space_to_dict's header",
    "serialize.multigraph_to_dict": "codec: one multigraph record",
    "serialize.multigraph_from_dict": "codec, tests only: reads multigraph_to_dict's record",
    "serialize.family_to_dict": "codec, tests only: the file family_from_dict reads",
    "serialize.family_from_dict": "codec: a --family file",
    "serialize.load_matrix": "codec: a --matrix file",
    "serialize.load_pmf": "codec: a --mu file",
    "serialize.save_matrix": "codec, tests only: the file load_matrix reads",
    "serialize.eta_to_dict": "codec: a parameter map",
    "serialize.eta_from_dict": "codec: reads eta_to_dict's map",
    "serialize.ermgm_to_dict": "codec, tests only: the file ermgm_from_dict reads",
    "serialize.ermgm_from_dict": "codec: a dyadic --model file",
    "serialize.write_states_jsonl": "codec: a state stream, one state per line",
    "serialize.read_states_jsonl": "codec: reads write_states_jsonl's stream",
    "serialize.write_multigraph_lines": "codec: sample's multigraph records",
    "serialize.write_running_means_csv": "codec: diagnose's running means",
    "serialize.write_trajectory": "codec: write_states_jsonl of a trajectory",
    "serialize.read_trajectory": "codec: read_states_jsonl, refusing an iid stream",
}


def _key(fn) -> str:
    return fn.__module__.removeprefix("pumc.") + "." + fn.__name__


def public_functions() -> set:
    """Functions named in pumc.__all__ and public functions defined in MODULES."""
    found = {_key(obj) for obj in (getattr(pumc, name) for name in pumc.__all__) if inspect.isfunction(obj)}
    for name in MODULES:
        module = importlib.import_module(f"pumc.{name}")
        found.update(_key(obj) for attr, obj in vars(module).items()
                     if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__)
    return found


def _names_in(node) -> set:
    """Every bare name and attribute name a function body mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_public_function_has_exactly_one_row():
    public = public_functions()
    assert not PARITY.keys() & NOT_FAST_PATH.keys()
    assert public - PARITY.keys() - NOT_FAST_PATH.keys() == set(), "public functions with no row"
    assert (PARITY.keys() | NOT_FAST_PATH.keys()) - public == set(), "rows for functions that are gone"


def test_each_parity_test_compares_the_fast_path_with_its_oracle():
    for fast, (reference, node) in PARITY.items():
        assert inspect.isfunction(getattr(oracle, reference, None)), reference
        path, test_name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        tests = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == test_name]
        assert len(tests) == 1, f"{node} is not a test"
        names = _names_in(tests[0])
        assert fast.split(".")[1] in names and reference in names, f"{node} does not name {fast} and {reference}"
