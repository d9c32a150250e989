"""Property-based tests: the TE transformations never introduce verifier
errors — a verifier-clean program stays clean through horizontal and
vertical transformation (hypothesis drives the same program generator shape
as the semantics properties)."""

from hypothesis import given, settings

from repro.graph import lower_graph
from repro.transform import horizontal_transform, vertical_transform
from repro.verify import verify_program

from tests.strategies import random_graphs


def assert_clean(program, stage):
    report = verify_program(program)
    assert report.clean, f"{stage} introduced errors:\n" + report.render()


@settings(max_examples=25, deadline=None)
@given(random_graphs(name="verifyprop"))
def test_horizontal_never_introduces_errors(graph):
    program = lower_graph(graph)
    assert_clean(program, "lowering")
    transformed, _ = horizontal_transform(program)
    assert_clean(transformed, "horizontal_transform")


@settings(max_examples=25, deadline=None)
@given(random_graphs(name="verifyprop"))
def test_vertical_never_introduces_errors(graph):
    program = lower_graph(graph)
    assert_clean(program, "lowering")
    transformed, _ = vertical_transform(program)
    assert_clean(transformed, "vertical_transform")


@settings(max_examples=15, deadline=None)
@given(random_graphs(name="verifyprop"))
def test_composed_transforms_never_introduce_errors(graph):
    program = lower_graph(graph)
    h, _ = horizontal_transform(program)
    v, _ = vertical_transform(h)
    assert_clean(v, "horizontal+vertical")
