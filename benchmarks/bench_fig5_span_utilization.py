"""Figure 5 — span utilization of BoostHD vs OnlineHD class hypervectors.

Regenerates the paper's qualitative comparison quantitatively: the mean
absolute cosine similarity between class hypervectors and the resulting span
utilization SP for both models at the same total dimensionality.
"""

from repro.experiments import figure5_span


def test_fig5_span_utilization(run_once, wesad, scale):
    def regenerate():
        return figure5_span(wesad, seed=0, scale=scale)

    results, text = run_once(regenerate)
    print("\n" + text)

    online, boost = results["OnlineHD"], results["BoostHD"]
    assert online.dim == boost.dim == scale.total_dim
    # Both models span rank = n_classes; utilisation differences come from the
    # attenuation (mutual alignment) term.
    assert online.rank == boost.rank
    print(
        f"mean |cos|: OnlineHD={online.mean_abs_cosine:.3f} BoostHD={boost.mean_abs_cosine:.3f}; "
        f"SP: OnlineHD={online.sp:.3g} BoostHD={boost.sp:.3g}"
    )
    # The paper's claim (BoostHD uses the space at least as well as OnlineHD):
    # allow a small tolerance since this is a statistical quantity.
    assert boost.sp >= online.sp * 0.8
