import time

import pytest

from bomtrace.gateway import Gateway

FIXED_NOW = 1_700_000_000_000

SUITE_BUDGET_SECONDS = 120


def pytest_configure(config):
    config._suite_started = time.monotonic()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.monotonic() - session.config._suite_started
    print(f"\n[criterion 8 runtime] suite finished in {elapsed:.1f}s "
          f"(budget {SUITE_BUDGET_SECONDS}s)")
    if elapsed > SUITE_BUDGET_SECONDS:
        session.exitstatus = 1
        print("[FAIL] suite exceeded the two-minute budget")


class Clock:
    """Milliseconds the test sets; the gateway reads it for every timestamp."""

    def __init__(self, now: int):
        self.now = now

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def clock():
    return Clock(FIXED_NOW)


@pytest.fixture
def gw(tmp_path, clock):
    gateway = Gateway(tmp_path / "data", deterministic_ids=True, clock=clock)
    yield gateway
    gateway.close()


HPC_MANIFEST = {
    "name": "HPC Congestion",
    "description": "Determine congestion levels on Hyde Park Corner",
    "assemblies": [
        {
            "name": "Traffic Scene Analysis",
            "description": "Determine congestion at Hyde Park Corner",
            "inputData": [
                {
                    "name": "Traffic Scene",
                    "metadata": {"dataAccess": "https://xyz.com/00001.06514.jpg"},
                }
            ],
            "outputData": [{"name": "Result"}],
            "inputArtifacts": [{"name": "Congestion Model"}],
        }
    ],
}


def build_hpc(gateway: Gateway) -> dict:
    """Case-study fixture: one assembly scoring congestion from a camera photo."""
    scene = gateway.create_component(
        "data_source",
        "Traffic Scene",
        access_metadata={"dataAccess": "https://xyz.com/00001.06514.jpg"},
    )
    model = gateway.create_component("artifact", "Congestion Model")
    result = gateway.create_component("data_source", "Result")
    assembly = gateway.create_assembly(
        "Traffic Scene Analysis",
        "Determine congestion at Hyde Park Corner",
        input_data=[scene.id],
        input_artifacts=[model.id],
        output_data=[result.id],
    )
    bom = gateway.create_bom(
        "HPC Congestion",
        "Determine congestion levels on Hyde Park Corner",
        [assembly.id],
    )
    return {
        "scene": scene.id,
        "model": model.id,
        "result": result.id,
        "assembly": assembly.id,
        "bom": bom.id,
    }


def build_two_stage_chain(gateway: Gateway) -> dict:
    """Two chained assemblies: labelling produces a data set consumed by training."""
    data1 = gateway.create_component("data_source", "Data 1")
    art1 = gateway.create_component("artifact", "Artifact 1")
    data1p = gateway.create_component("data_source", "Data 1'")
    art2 = gateway.create_component("artifact", "Artifact 2")
    art2p = gateway.create_component("artifact", "Artifact 2'")
    a1 = gateway.create_assembly(
        "Assembly 1",
        "Data labelling",
        input_data=[data1.id],
        input_artifacts=[art1.id],
        output_data=[data1p.id],
    )
    a2 = gateway.create_assembly(
        "Assembly 2",
        "Model training",
        input_data=[data1p.id],
        input_artifacts=[art2.id],
        output_artifacts=[art2p.id],
    )
    bom = gateway.create_bom("Model Training Pipeline", None, [a1.id, a2.id])
    return {
        "data1": data1.id,
        "art1": art1.id,
        "data1p": data1p.id,
        "art2": art2.id,
        "art2p": art2p.id,
        "a1": a1.id,
        "a2": a2.id,
        "bom": bom.id,
    }
