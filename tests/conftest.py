import pytest

from dagmut import model_from_graph, parse_graph
from dagmut.graph import Dg
from dagmut.mutate import ModelState

from support import SAMPLE_GRAPH_TEXT


@pytest.fixture
def sample_graph() -> Dg:
    return parse_graph(SAMPLE_GRAPH_TEXT)


@pytest.fixture
def sample_state(sample_graph) -> ModelState:
    return model_from_graph(sample_graph)
