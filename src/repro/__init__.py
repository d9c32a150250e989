"""repro — a from-scratch reproduction of Souffle (ASPLOS 2024).

"Optimizing Deep Learning Inference via Global Analysis and Tensor
Expressions": a top-down DNN inference compiler that lowers whole models to
tensor expressions, analyses the global tensor dependency graph, partitions
it into resource-feasible subprograms, applies semantic-preserving
horizontal/vertical TE transformations, and emits merged kernels with
grid-synchronisation, instruction pipelining and on-chip tensor reuse.

Quick start::

    from repro import compile_model, get_model, profile_module

    module = compile_model(get_model("bert"), level=4)
    report = profile_module(module)
    print(report.render())
"""

from repro.cache import CompileCache, ModuleCache, ScheduleCache
from repro.core.config import SouffleOptions
from repro.core.souffle import SouffleCompiler, compile_model
from repro.gpu.device import GPUSpec, a100_40gb, v100_16gb
from repro.graph.builder import GraphBuilder
from repro.graph.lowering import lower_graph
from repro.models import get_model
from repro.runtime.executor import ExecutionPlan, PlanConfig
from repro.runtime.module import CompiledModule
from repro.runtime.profiler import ProfileReport, profile_module
from repro.runtime.session import InferenceSession

__version__ = "0.1.0"

__all__ = [
    "CompileCache",
    "CompiledModule",
    "ExecutionPlan",
    "GPUSpec",
    "InferenceSession",
    "GraphBuilder",
    "ModuleCache",
    "PlanConfig",
    "ProfileReport",
    "ScheduleCache",
    "SouffleCompiler",
    "SouffleOptions",
    "a100_40gb",
    "compile_model",
    "get_model",
    "lower_graph",
    "profile_module",
    "v100_16gb",
    "__version__",
]
