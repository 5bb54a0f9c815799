"""Fig. 16 (repro extension): multi-core guest scaling curve."""

from repro.experiments import FIGURES
from repro.experiments.fig16_multicore_scaling import speedup_for


def test_fig16_multicore_scaling(benchmark, runner, compare):
    figure = benchmark.pedantic(lambda: FIGURES["fig16"].run(runner),
                                rounds=1, iterations=1)
    print()
    print(figure.render())
    compare("Fig.16 guest speedup vs the 1-thread run (extension "
            "figure: no paper band; CI floor is the benchmark's "
            "g5.guest_speedup_x4)", [
        ("Atomic @2 threads", "n/a",
         f"{speedup_for(figure, 'atomic', 2):.2f}x"),
        ("Atomic @4 threads", ">1.2x",
         f"{speedup_for(figure, 'atomic', 4):.2f}x"),
        ("Timing @2 threads", "n/a",
         f"{speedup_for(figure, 'timing', 2):.2f}x"),
        ("Timing @4 threads", "n/a",
         f"{speedup_for(figure, 'timing', 4):.2f}x"),
    ])
    # The CI gate's bar: at simsmall the best model must scale.
    assert speedup_for(figure, "atomic", 4) > 1.2
    # And the 4-thread timing run must at least not regress the guest.
    assert speedup_for(figure, "timing", 4) > 1.0
