"""The package's public API, and the integer checks of the closed-form builders."""

import importlib

import pytest

import qalt
from qalt.braid3 import B3NormalForm, tutte_graph
from qalt.diagram import generate_pretzel
from qalt.errors import MalformedDiagramError
from qalt.montesinos import MontesinosPresentation, corollary26_obstruction, pretzel_family_report


def test_every_export_is_its_submodule_object():
    assert len(set(qalt.__all__)) == len(qalt.__all__)
    for name in qalt.__all__:
        obj = getattr(qalt, name)
        assert obj.__module__.startswith("qalt."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    for name in ("obstruction_check", "q_polynomial", "parse_pd", "CrossingLimitError"):
        assert name in qalt.__all__


@pytest.mark.parametrize(
    "build, args, error",
    [
        (MontesinosPresentation.make, (1, [(3.5, 1)], (2, 1)), TypeError),
        (MontesinosPresentation.make, (1.0, [(3, 1)], (2, 1)), TypeError),
        (MontesinosPresentation.make, (1, [(3, 1)], (2, 1.5)), TypeError),
        (corollary26_obstruction, ([(2.0, 1), (2, 1)], 1, 0, 1), TypeError),
        (corollary26_obstruction, ([(2, 1), (2, 1)], 1.0, 0, 1), TypeError),
        (corollary26_obstruction, ([(2, 1), (2, 1)], 1, 0.0, 1), TypeError),
        (corollary26_obstruction, ([(2, 1), (2, 1)], 1, 0, 2.5), TypeError),
        (pretzel_family_report, ("C", 5.9), TypeError),
        (B3NormalForm.family1, (1.7, [(2, 1)]), TypeError),
        (B3NormalForm.family1, (1, [(2.2, 1)]), TypeError),
        (B3NormalForm.family1, (1, [(2, 1.9)]), TypeError),
        (B3NormalForm.family2, (0.5, 2), TypeError),
        (B3NormalForm.family2, (0, 2.5), TypeError),
        (B3NormalForm.family3, (1.5, -1), TypeError),
        (B3NormalForm.family3, (0, -1.0), TypeError),
        (tutte_graph, ([(2.5, 1)],), TypeError),
        (tutte_graph, ([(2, 1.5)],), TypeError),
        # as in close_braid: a bad entry makes a malformed diagram
        (generate_pretzel, ([3, 2.5, -3],), MalformedDiagramError),
        (generate_pretzel, ([3, 3, "3"],), MalformedDiagramError),
    ],
)
def test_a_non_integer_closed_form_input_raises(build, args, error):
    # each of these used to truncate the float, keep it, or raise a bare
    # TypeError from deep inside the builder
    with pytest.raises(error):
        build(*args)
