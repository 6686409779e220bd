"""E3 (paper Fig. 3): the generating extension of ``power``.

Regenerates the cogen output and benchmarks running the generating
extension in both directions of the paper's example:

* ``power {S D} 3 x``  — unfolds to ``x * (x * x)``;
* ``power {D S} n 2``  — produces the polyvariant residual loop.
"""

import repro
from repro.bench.generators import power_source
from repro.bench.metrics import code_lines
from repro.bt.analysis import analyse_program
from repro.genext.cogen import cogen_program
from repro.modsys.program import load_program


def _gp():
    return repro.compile_genexts(power_source())


def test_cogen_of_power(benchmark, table):
    linked = load_program(power_source())
    analysis = analyse_program(linked)
    modules = benchmark(cogen_program, analysis)
    src = modules[0].source
    assert "def mk_power(st, t, u, n, x):" in src
    assert "    return rt.mk_resid(st, _QUAL + 'power', (t, u), (n, x), " in src
    table(
        "Fig. 3 — cogen output for power",
        ["metric", "value"],
        [
            ["source lines", code_lines(power_source())],
            ["genext lines", code_lines(src)],
            ["has mk_power / mk_power_body", True],
        ],
    )


def test_specialise_static_exponent(benchmark):
    gp = _gp()
    result = benchmark(repro.specialise, gp, "power", {"n": 8})
    assert result.run(2) == 256
    assert result.stats["unfolds"] == 8


def test_specialise_static_base(benchmark):
    gp = _gp()
    result = benchmark(repro.specialise, gp, "power", {"x": 2})
    assert result.run(10) == 1024
    assert result.stats["specialisations"] == 1


def test_fig3_outputs(benchmark, table):
    gp = _gp()

    def both():
        return (
            repro.specialise(gp, "power", {"n": 3}),
            repro.specialise(gp, "power", {"x": 2}),
        )

    unfolded, residual = benchmark.pedantic(both, rounds=1, iterations=1)
    table(
        "Fig. 3 — specialisations of power",
        ["direction", "residual program"],
        [
            ["power {S D} 3 x", repro.pretty_program(unfolded.program).strip()],
            ["power {D S} n 2", repro.pretty_program(residual.program).strip().replace("\n", " ; ")],
        ],
    )
