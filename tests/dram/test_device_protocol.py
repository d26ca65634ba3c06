"""The one device protocol: every layer defines its own surface.

``FaultyStack`` and ``DefendedDevice`` stand on the command path between
the host and the chip.  Neither forwards unknown attributes to the device
it wraps, so an operation they do not define cannot silently skip their
fault draws or their controller.
"""

import inspect

import numpy as np
import pytest

from repro.defenses import DefendedDevice, Graphene
from repro.dram.commands import Command, CommandKind
from repro.dram.device import Device, HBM2Stack
from repro.dram.geometry import RowAddress
from repro.faults import FaultPlan, FaultyStack

#: Row operations the base class dispatches to; each concrete class
#: must define them on its own class.
ROW_OPERATIONS = ("wait", "activate", "precharge", "read_row", "write_row",
                  "hammer", "refresh", "refresh_burst")

#: Defined once on the base class and inherited as-is.
SHARED = ("execute", "run", "batch_stack", "injector")

#: Plain members every wrapper sets itself (the wrapped device's values).
OWN_FIELDS = ("geometry", "timings", "stats")

#: Stack internals and helpers that exist only on :class:`HBM2Stack`.
STACK_ONLY = ("inspect_row", "accumulated_units", "enable_tracing", "trace",
              "trr_engine", "set_temperature", "mode_registers",
              "row_mapping", "_trr", "_rows", "_banks", "_trace")

ROW = RowAddress(0, 0, 0, 4000)


def _defended():
    return DefendedDevice(HBM2Stack(), Graphene(threshold=3500))


WRAPPERS = {
    "faulty": lambda: FaultyStack(HBM2Stack(), FaultPlan(seed=3)),
    "defended": lambda: _defended(),
    "faulty-over-defended": lambda: FaultyStack(_defended(),
                                                FaultPlan(seed=3)),
}


@pytest.fixture(params=sorted(WRAPPERS))
def wrapper(request):
    return WRAPPERS[request.param]()


class TestWrapperSurface:
    def test_no_attribute_delegation(self, wrapper):
        cls = type(wrapper)
        assert not hasattr(cls, "__getattr__")
        assert cls.__getattribute__ is object.__getattribute__

    def test_row_operations_defined_on_own_class(self, wrapper):
        cls = type(wrapper)
        for name in ROW_OPERATIONS:
            assert name in vars(cls), name
            assert getattr(cls, name) is not getattr(Device, name), name

    def test_shared_members_resolve_statically(self, wrapper):
        for name in SHARED:
            inspect.getattr_static(wrapper, name)  # raises if missing

    def test_own_fields_mirror_the_wrapped_device(self, wrapper):
        for name in OWN_FIELDS:
            assert name in vars(wrapper), name
            assert getattr(wrapper, name) is getattr(wrapper.wrapped, name)

    def test_now_ns_is_a_read_only_property(self, wrapper):
        assert isinstance(vars(type(wrapper))["now_ns"], property)
        wrapper.wrapped.wait(125.0)
        assert wrapper.now_ns == wrapper.wrapped.now_ns == 125.0
        with pytest.raises(AttributeError):
            wrapper.now_ns = 0.0
        assert wrapper.now_ns == 125.0

    def test_stack_only_attributes_do_not_pass_through(self, wrapper):
        stack = HBM2Stack()
        for name in STACK_ONLY:
            assert hasattr(stack, name), name
            with pytest.raises(AttributeError):
                getattr(wrapper, name)

    def test_commands_dispatch_through_the_wrapper(self, wrapper):
        image = np.full(wrapper.geometry.row_bytes, 0x3C, dtype=np.uint8)
        wrapper.execute(Command(CommandKind.WR, 0, 0, 0, ROW.row,
                                data=image))
        data = wrapper.execute(Command(CommandKind.RD, 0, 0, 0, ROW.row))
        assert np.array_equal(data, image)
        assert wrapper.stats.writes == wrapper.stats.reads == 1


class TestCapabilityQuery:
    def test_plain_stack_batches_itself(self):
        stack = HBM2Stack()
        assert stack.batch_stack is stack
        assert stack.injector is None

    def test_stack_subclass_does_not_batch(self):
        class Oddball(HBM2Stack):
            pass

        assert Oddball().batch_stack is None

    def test_injector_exposes_the_stack_it_wraps(self):
        stack = HBM2Stack()
        faulty = FaultyStack(stack, FaultPlan(seed=3))
        assert faulty.batch_stack is stack
        assert faulty.injector is faulty

    def test_defense_hides_its_stack(self):
        defended = _defended()
        assert defended.batch_stack is None
        assert defended.injector is None
        faulty = FaultyStack(defended, FaultPlan(seed=3))
        assert faulty.batch_stack is None
        assert faulty.injector is faulty


def test_faulty_refresh_burst_draws_per_ref():
    """A burst is ``count`` REFs through the fault layer: each one ticks
    the command counter and may be dropped or ghosted on its own."""
    plan = FaultPlan(seed=5, drop_rate=0.3, ghost_rate=0.3)
    burst = FaultyStack(HBM2Stack(), plan)
    loop = FaultyStack(HBM2Stack(), plan)
    burst.refresh_burst(0, 0, 40)
    for __ in range(40):
        loop.refresh(0, 0)
    assert burst._counter == loop._counter == 40
    assert burst.events == loop.events
    assert {event.fault for event in burst.events} == {"drop", "ghost"}
    assert burst.stats.refs == loop.stats.refs
    assert burst.now_ns == loop.now_ns
