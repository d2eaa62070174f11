import pytest
import ray

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_smoke():
    return SF_SMOKE


@pytest.fixture(scope="session")
def sf_correct():
    return SF_CORRECT


@pytest.fixture
def executions(monkeypatch):
    """Every Ray Data execution as the list of its operators' names."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    seen = []
    orig = StreamingExecutor.execute

    def record(self, dag, *a, **k):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append(f"{type(op).__name__}:{op.name}")
            stack.extend(op.input_dependencies)
        seen.append(ops)
        return orig(self, dag, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", record)
    return seen
