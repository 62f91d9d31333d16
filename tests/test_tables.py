"""Exact bytes of every table and document hpqkit writes.

Each case writes one file from small fixed inputs and compares the whole
file with a bytes literal, so a change of number format, column order,
section layout or line ending shows here. A property compares the
column-block CSV writer with a row-at-a-time reference. The structure
test keeps the file policy and the number format in ``hpqkit.tables`` alone.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpqkit import (
    CircuitParams,
    FitResult,
    HarmonicSpectrum,
    NanowireChannels,
    Regime,
    SpectroscopyDataset,
    Trace,
    TransitionPoint,
    TransitionTable,
    write_dataset_csv,
    write_fit_result,
    write_harmonics_csv,
    write_map_csv,
)
from hpqkit.analysis import GateHarmonics, RegimeRow, write_gate_harmonics_csv, write_regimes_csv
from hpqkit.cli import main
from hpqkit.tables import fmt, write_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "hpqkit"

PARAMS = CircuitParams(ej1=55.03, ej2=54.5, ecj=0.675, ec=0.28, gap=40.06)
NAN = float("nan")


def _harmonics(path):
    spec = HarmonicSpectrum(
        u=np.array([-50.5, 1.25e-3, -0.0]),
        v=np.array([-40.06, 3.0, 1.0 / 3.0]),
        c=np.array([123456789.123456, -2.0e-20, 7.0]),
        s=np.array([0.0, -0.0, 2.5e-13]),
    )
    write_harmonics_csv(spec, path)


def _transitions(path):
    table = TransitionTable(
        flux_radians=np.array([0.0, math.pi, -0.5 * math.pi]),
        energies=np.zeros((3, 3)),
        frequencies={
            "f01": np.array([5.0, NAN, 4.123456789012345]),
            "f02/2": np.array([-0.0, NAN, 1e300]),
        },
        matrix_elements={(0, 1): np.array([0.5, NAN, 2.0 / 3.0])},
        labels=("f01", "f02/2"),
        me_pairs=((0, 1),),
        failed=np.array([False, True, False]),
    )
    table.to_csv(path)


def _map(path):
    traces = [
        Trace(phi_e=0.0, freqs=np.array([0.1, 0.2, 0.30000000000000004]),
              signal=np.array([0.0, -0.0, 1e-300])),
        Trace(phi_e=-0.25 * math.pi, freqs=np.array([1.0, 2.0]), signal=np.array([0.75, -5.5])),
    ]
    write_map_csv(traces, path)


def _gate_harmonics(path):
    rows = [
        GateHarmonics(gate=-7.0, c=np.array([0.0, -1.5, 0.25]), s=np.array([0.0, -0.0, 1e-9]),
                      c_even=0.25, c_odd=-1.5, ratio=1.0 / 6.0,
                      c_normalized=np.array([0.0, -1.0, 1.0 / 6.0])),
        GateHarmonics(gate=0.5, c=np.array([0.0, NAN, 2.0]), s=np.array([0.0, 3.0, 4.0]),
                      c_even=2.0, c_odd=NAN, ratio=math.inf,
                      c_normalized=np.array([0.0, NAN, NAN])),
    ]
    write_gate_harmonics_csv(rows, path)


def _regimes(path):
    rows = [
        RegimeRow(gate=-7.0, phi_min=math.pi, regime=Regime.ODD_DOMINATED),
        RegimeRow(gate=0.125, phi_min=-0.0, regime=Regime.EVEN_DOMINATED),
        RegimeRow(gate=3.0, phi_min=1.0 / 3.0, regime=Regime.MIXED),
    ]
    write_regimes_csv(rows, path)


def _signed_zero_columns(path, *extra):
    """Numpy cells, -0.0 among them; ``extra`` cells repeat on every row, as constant columns do."""
    header = ["gate", "v1", "v2", "v_even", "v_odd", "t_sum"] + ["u_even", "u_odd"][: len(extra)]
    v1, v2 = np.array([1.5, 2.0]), np.array([-0.25, -0.0])
    write_csv(path, header, [
        ([-1.0, 2.0], v1, v2, v2, v1, [1.75, 2.0 / 3.0], *([cell] * 2 for cell in extra)),
    ])


def _joined_cells(path):
    """A ``;``-joined ``str`` cell of formatted numbers, and an empty ``str`` cell."""
    dominant = (((0, 0.75), (-2, 0.2), (2, 1.0 / 30.0)), (), ((1, 1.0),))
    cells = [";".join(f"{n}:{fmt(p)}" for n, p in pairs) for pairs in dominant]
    write_csv(path, ("state", "energy_ghz", "even_weight", "odd_weight", "dominant"), [
        ([0, 1, 2], [-12.345678901234, 5.0, 9.5], [0.9999999999999, -0.0, 0.5], [1e-13, 1.0, 0.5], cells),
    ])


def _csv_cells(path):
    # a one-row block, then a two-row one
    write_csv(path, ("x", "y", "series"),
              [([0.0], [1.5], ["c_even"]), (np.array([-0.0, 1e-7]), [NAN, -math.inf], ["c_odd", "ratio"])])


def _dataset(path):
    datasets = [
        SpectroscopyDataset(gate=-7.0, points=(
            TransitionPoint(flux=0.0, label="f01", freq=5.123456789012345, sigma=0.01),
            TransitionPoint(flux=math.pi, label="f02/2", freq=4.0, sigma=1e-3, used=False),
        )),
        SpectroscopyDataset(gate=0.25, points=(
            TransitionPoint(flux=-0.5 * math.pi, label="f12", freq=3.3, sigma=0.02),
        )),
    ]
    write_dataset_csv(datasets, path)


FIT = FitResult(
    params=PARAMS,
    channels=(NanowireChannels((0.8, 0.4)), NanowireChannels((0.95, 1.0 / 3.0, 0.0))),
    rmse=0.0012345678901234,
    rmse_per_dataset=(0.001, 1.0 / 700.0),
    residuals=np.zeros(3),
    cost=0.5,
    converged=False,
    message="budget exhausted; best so far",
    n_evaluations=61,
    boundary_active=((False, False), (False, False, True)),
    start_costs=(),
)


def _fit_counts(path):
    write_fit_result(FIT, [-7.0, 0.125], path)


SYNTH_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[channels]
transmissions = 0.98, 0.75

[synth]
seed = 7
fwhm = 0.05
noise_sigma = 0.001
weight_by_matrix_element = false
labels = f01, f02/2
flux_start = 0
flux_stop = 0.5
flux_points = 2
freq_start = 0.1
freq_stop = 20
freq_points = 5
"""


def _map_meta(path, config_text=SYNTH_CONFIG):
    out_dir = Path(path).parent
    config = out_dir / "run.ini"
    config.write_text(config_text)
    assert main(["synth", "--config", str(config), "--out-dir", str(out_dir), "--kmax", "4",
                 "--ncut", "12"]) == 0
    Path(path).write_bytes((out_dir / "map_meta.ini").read_bytes())


GOLDEN = [
    pytest.param(
        _harmonics,
        b'k,u_k,v_k,c_k,s_k\n'
        b'0,-50.5,-40.06,123456789.123,0\n'
        b'1,0.00125,3,-2e-20,-0\n'
        b'2,-0,0.333333333333,7,2.5e-13\n',
        id="harmonics",
    ),
    pytest.param(
        _transitions,
        b'flux_phi0,f01,f02/2,n01\n'
        b'0,5,-0,0.5\n'
        b'0.5,nan,nan,nan\n'
        b'-0.25,4.12345678901,1e+300,0.666666666667\n',
        id="transitions-nan-row",
    ),
    pytest.param(
        _map,
        b'flux_phi0,drive_freq_ghz,signal\n'
        b'0,0.1,0\n'
        b'0,0.2,-0\n'
        b'0,0.3,1e-300\n'
        b'-0.125,1,0.75\n'
        b'-0.125,2,-5.5\n',
        id="map",
    ),
    pytest.param(
        _gate_harmonics,
        b'gate,c1,c2,s1,s2,c_even,c_odd,parity_ratio,c1_norm,c2_norm\n'
        b'-7,-1.5,0.25,-0,1e-09,0.25,-1.5,0.166666666667,-1,0.166666666667\n'
        b'0.5,nan,2,3,4,2,nan,inf,nan,nan\n',
        id="gate-harmonics",
    ),
    pytest.param(
        lambda p: write_gate_harmonics_csv([], p),
        b'gate\n',
        id="gate-harmonics-empty",
    ),
    pytest.param(
        _regimes,
        b'gate,phi_min_rad,regime\n'
        b'-7,3.14159265359,OddDominated\n'
        b'0.125,-0,EvenDominated\n'
        b'3,0.333333333333,Mixed\n',
        id="regimes",
    ),
    pytest.param(
        lambda p: write_regimes_csv([], p),
        b'gate,phi_min_rad,regime\n',
        id="regimes-empty",
    ),
    pytest.param(
        _signed_zero_columns,
        b'gate,v1,v2,v_even,v_odd,t_sum\n'
        b'-1,1.5,-0.25,-0.25,1.5,1.75\n'
        b'2,2,-0,-0,2,0.666666666667\n',
        id="sns",
    ),
    pytest.param(
        lambda p: _signed_zero_columns(p, -50.0, 0.125),
        b'gate,v1,v2,v_even,v_odd,t_sum,u_even,u_odd\n'
        b'-1,1.5,-0.25,-0.25,1.5,1.75,-50,0.125\n'
        b'2,2,-0,-0,2,0.666666666667,-50,0.125\n',
        id="sns-with-u",
    ),
    pytest.param(
        lambda p: write_csv(p, ("gate", "v_even", "v_odd", "t_sum"), iter(())),
        b'gate,v_even,v_odd,t_sum\n',
        id="sns-empty",
    ),
    pytest.param(
        _joined_cells,
        b'state,energy_ghz,even_weight,odd_weight,dominant\n'
        b'0,-12.3456789012,1,1e-13,0:0.75;-2:0.2;2:0.0333333333333\n'
        b'1,5,-0,1,\n'
        b'2,9.5,0.5,0.5,1:1\n',
        id="parity-dominant",
    ),
    pytest.param(
        _csv_cells,
        b'x,y,series\n'
        b'0,1.5,c_even\n'
        b'-0,nan,c_odd\n'
        b'1e-07,-inf,ratio\n',
        id="csv-cells",
    ),
    pytest.param(
        _dataset,
        b'gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n'
        b'-7,0,f01,5.12345678901,0.01,1\n'
        b'-7,0.5,f02/2,4,0.001,0\n'
        b'0.25,-0.25,f12,3.3,0.02,1\n',
        id="dataset",
    ),
    pytest.param(
        _fit_counts,
        b'[globals]\n'
        b'ej1 = 55.03\n'
        b'ej2 = 54.5\n'
        b'ecj = 0.675\n'
        b'ec = 0.28\n'
        b'gap = 40.06\n'
        b'\n'
        b'[fit]\n'
        b'rmse_ghz = 0.00123456789012\n'
        b'converged = false\n'
        b'n_evaluations = 61\n'
        b'message = budget exhausted; best so far\n'
        b'\n'
        b'[gate:-7]\n'
        b'transmissions = 0.8, 0.4\n'
        b'rmse_ghz = 0.001\n'
        b'boundary_active = false\n'
        b'channel_count = 2\n'
        b'\n'
        b'[gate:0.125]\n'
        b'transmissions = 0.95, 0.333333333333, 0\n'
        b'rmse_ghz = 0.00142857142857\n'
        b'boundary_active = true\n'
        b'channel_count = 3\n',
        id="fit-result-counts",
    ),
    pytest.param(
        _map_meta,
        b'[synth]\n'
        b'seed = 7\n'
        b'fwhm = 0.05\n'
        b'amplitude = 1\n'
        b'noise_sigma = 0.001\n'
        b'weight_by_matrix_element = false\n'
        b'labels = f01, f02/2\n'
        b'flux_start = 0\n'
        b'flux_stop = 0.5\n'
        b'flux_points = 2\n'
        b'freq_start = 0.1\n'
        b'freq_stop = 20\n'
        b'freq_points = 5\n'
        b'k_max = 4\n'
        b'\n'
        b'[basis]\n'
        b'n_cut = 12\n'
        b'n_g = 0\n'
        b'n_levels = 6\n'
        b'\n'
        b'[circuit]\n'
        b'ej1 = 55.03\n'
        b'ej2 = 55.03\n'
        b'ecj = 0.675\n'
        b'ec = 0.28\n'
        b'gap = 40.06\n'
        b'\n'
        b'[channels]\n'
        b'transmissions = 0.98, 0.75\n',
        id="cli-map-meta",
    ),
    pytest.param(
        lambda p: _map_meta(p, SYNTH_CONFIG.replace("[channels]\ntransmissions = 0.98, 0.75\n", "")),
        b'[synth]\n'
        b'seed = 7\n'
        b'fwhm = 0.05\n'
        b'amplitude = 1\n'
        b'noise_sigma = 0.001\n'
        b'weight_by_matrix_element = false\n'
        b'labels = f01, f02/2\n'
        b'flux_start = 0\n'
        b'flux_stop = 0.5\n'
        b'flux_points = 2\n'
        b'freq_start = 0.1\n'
        b'freq_stop = 20\n'
        b'freq_points = 5\n'
        b'k_max = 4\n'
        b'\n'
        b'[basis]\n'
        b'n_cut = 12\n'
        b'n_g = 0\n'
        b'n_levels = 6\n'
        b'\n'
        b'[circuit]\n'
        b'ej1 = 55.03\n'
        b'ej2 = 55.03\n'
        b'ecj = 0.675\n'
        b'ec = 0.28\n'
        b'gap = 40.06\n'
        b'\n'
        b'[channels]\n'
        b'transmissions = \n',
        id="cli-map-meta-open-nanowire",
    ),
]


@pytest.mark.parametrize("write, expected", GOLDEN)
def test_file_bytes(tmp_path, write, expected):
    path = tmp_path / "out.txt"
    write(str(path))
    assert path.read_bytes() == expected


def csv_row_at_a_time(header, rows) -> bytes:
    """Reference CSV bytes: each row formatted alone by the template its first row fixes."""
    rows = iter(rows)
    first = next(rows, None)
    out = [",".join(header) + "\n"]
    if first is not None:
        template = ",".join("%s" if isinstance(c, str) else "%.12g" for c in first) + "\n"
        out.append(template % first)
        out.extend(template % row for row in rows)
    return "".join(out).encode("utf-8")


NUMBER_CELLS = {
    int: st.integers(-(10**15), 10**15),
    float: st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300]),
}
STR_CELLS = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


@st.composite
def csv_tables(draw):
    """A header, and rows whose columns each hold one cell type, cut into blocks of columns.

    Blocks hold 0, 1 or more rows. A column of numbers is a list or a
    numpy array of them.
    """
    kinds = draw(st.lists(st.sampled_from([str, int, float]), min_size=1, max_size=5))
    pools = [
        draw(st.lists(STR_CELLS if kind is str else NUMBER_CELLS[kind], min_size=1, max_size=8))
        for kind in kinds
    ]
    sizes = draw(st.lists(st.sampled_from([0, 1, 1, 2, 7, 300]), max_size=5))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [tuple(rnd.choice(pool) for pool in pools) for _ in range(sum(sizes))]
    as_array = [kind is not str and draw(st.booleans()) for kind in kinds]
    blocks, start = [], 0
    for size in sizes:
        columns = list(zip(*rows[start : start + size])) or [()] * len(kinds)
        blocks.append([np.array(col, dtype=kind) if arr else list(col) for col, arr, kind in zip(columns, as_array, kinds)])
        start += size
    return [f"col{i}" for i in range(len(kinds))], rows, blocks


@given(table=csv_tables())
def test_write_csv_matches_row_at_a_time_formatting(tmp_path_factory, table):
    header, rows, blocks = table
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(path), header, iter(blocks))
    assert path.read_bytes() == csv_row_at_a_time(header, rows)


@pytest.mark.parametrize("ragged", [
    [([1.0, 2.0, 3.0], [4.0, 5.0], [6.0, 7.0, 8.0])],
    [([1.0, 2.0, 3.0], [4.0, 5.0], [6.0, 7.0, 8.0, 9.0])],
    [([1.0, 2.0, 3.0],) * 3] * 3 + [([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [1.0, 2.0, 3.0])],
    # a one-cell column, which an array assignment would broadcast
    [([1.0, 2.0, 3.0], [4.0], [6.0, 7.0, 8.0])],
], ids=["short", "short-then-long", "long-in-second-block", "one-cell"])
def test_write_csv_rejects_a_row_of_another_width(tmp_path, ragged):
    # a column shorter or longer than the block's first leaves a row with another number of cells
    with pytest.raises(TypeError, match="columns of one block need one length"):
        write_csv(str(tmp_path / "out.csv"), ("a", "b", "c"), ragged)


def test_write_csv_rejects_a_block_of_another_width(tmp_path):
    with pytest.raises(TypeError):
        write_csv(str(tmp_path / "out.csv"), ("a", "b"), [([1.0], [2.0]), ([1.0], [2.0], [3.0])])


def test_only_tables_module_writes_files():
    """No module but ``tables`` opens a file for writing or spells the number format."""
    opens_for_writing = re.compile(r"""open\([^)]*["'][wax]\+?b?["']|\.write_(text|bytes)\(""")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tables.py":
            continue
        text = path.read_text(encoding="utf-8")
        if opens_for_writing.search(text) or "12g" in text:
            offenders.append(path.name)
    assert offenders == []
