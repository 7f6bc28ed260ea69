"""Unit tests for the error hierarchy and workload traits."""

import pytest

from repro.errors import (
    CLBuildProgramFailure,
    CLError,
    CLInvalidKernelArgs,
    CLInvalidMemObject,
    CLInvalidValue,
    CLInvalidWorkGroupSize,
    CLMapFailure,
    CLOutOfResources,
    CalibrationError,
    CompilerError,
    CompilerInternalError,
    IRError,
    RegisterAllocationError,
    ReproError,
)
from repro.memory.cache import StreamSpec
from repro.workload import WorkloadTraits


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for exc_type in (
            IRError,
            CompilerError,
            RegisterAllocationError,
            CompilerInternalError,
            CalibrationError,
            CLError,
            CLOutOfResources,
        ):
            assert issubclass(exc_type, ReproError)

    def test_compiler_errors(self):
        assert issubclass(RegisterAllocationError, CompilerError)
        assert issubclass(CompilerInternalError, CompilerError)
        assert not issubclass(CompilerError, CLError)

    def test_cl_error_codes(self):
        cases = {
            CLInvalidValue: "CL_INVALID_VALUE",
            CLInvalidMemObject: "CL_INVALID_MEM_OBJECT",
            CLInvalidKernelArgs: "CL_INVALID_KERNEL_ARGS",
            CLInvalidWorkGroupSize: "CL_INVALID_WORK_GROUP_SIZE",
            CLOutOfResources: "CL_OUT_OF_RESOURCES",
            CLBuildProgramFailure: "CL_BUILD_PROGRAM_FAILURE",
            CLMapFailure: "CL_MAP_FAILURE",
        }
        for exc_type, code in cases.items():
            assert exc_type.code == code
            assert code in str(exc_type("details"))
            assert "details" in str(exc_type("details"))

    def test_cl_error_without_message(self):
        assert str(CLOutOfResources()) == "CL_OUT_OF_RESOURCES"

    def test_register_allocation_error_payload(self):
        exc = RegisterAllocationError("boom", registers_required=40, register_limit=32)
        assert exc.registers_required == 40
        assert exc.register_limit == 32


class TestWorkloadTraits:
    def test_defaults(self):
        traits = WorkloadTraits()
        assert traits.streams == ()
        assert traits.total_footprint_bytes == 0.0

    def test_footprint_sum(self):
        traits = WorkloadTraits(
            streams=(StreamSpec("a", 100.0), StreamSpec("b", 200.0))
        )
        assert traits.total_footprint_bytes == 300.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"imbalance_cv": -0.1},
            {"serial_fraction": 1.5},
            {"serial_fraction": -0.1},
            {"elements": -1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadTraits(**kwargs)

    def test_frozen(self):
        traits = WorkloadTraits()
        with pytest.raises(Exception):
            traits.elements = 5
