"""Tests for the type system."""

import copy
import dataclasses
import pickle
import sys
import threading
import time
import weakref

import pytest

from repro.ir.types import (
    DYNAMIC,
    F32,
    F64,
    FunctionType,
    I1,
    I32,
    INDEX,
    IndexType,
    IntegerType,
    LLVMPointerType,
    LLVMStructType,
    MemRefLayout,
    MemRefType,
    NONE,
    OpaqueType,
    TensorType,
    Type,
    VectorType,
    memref,
    tensor,
    vector,
)


class TestScalarTypes:
    def test_integer_str(self):
        assert str(IntegerType(32)) == "i32"
        assert str(IntegerType(1)) == "i1"

    def test_signed_integer_str(self):
        assert str(IntegerType(8, signed=True)) == "si8"
        assert str(IntegerType(8, signed=False)) == "ui8"

    def test_index_and_float(self):
        assert str(INDEX) == "index"
        assert str(F32) == "f32"
        assert str(NONE) == "none"

    def test_equality_and_hash(self):
        assert IntegerType(32) == I32
        assert hash(IntegerType(32)) == hash(I32)
        assert IntegerType(32) != IntegerType(64)
        assert IntegerType(32) != F32

    def test_singletons_are_equal_to_fresh_instances(self):
        assert IndexType() == INDEX


class TestFunctionType:
    def test_single_result_str(self):
        ft = FunctionType((I32, F32), (I32,))
        assert str(ft) == "(i32, f32) -> i32"

    def test_multi_result_str(self):
        ft = FunctionType((I32,), (I32, F32))
        assert str(ft) == "(i32) -> (i32, f32)"

    def test_empty(self):
        assert str(FunctionType((), ())) == "() -> ()"


class TestShapedTypes:
    def test_tensor_str(self):
        assert str(tensor(4, 4)) == "tensor<4x4xf32>"
        assert str(TensorType((2, DYNAMIC), F64)) == "tensor<2x?xf64>"

    def test_vector_str(self):
        assert str(vector(8)) == "vector<8xf32>"

    def test_rank_and_elements(self):
        t = tensor(3, 5)
        assert t.rank == 2
        assert t.num_elements == 15
        assert t.has_static_shape

    def test_dynamic_shape_has_no_element_count(self):
        t = TensorType((DYNAMIC,), F32)
        assert not t.has_static_shape
        with pytest.raises(ValueError):
            t.num_elements

    def test_rank_zero_tensor(self):
        t = TensorType((), F32)
        assert t.rank == 0
        assert t.num_elements == 1


class TestMemRefType:
    def test_plain_str(self):
        assert str(memref(4, 4)) == "memref<4x4xf32>"

    def test_identity_strides(self):
        assert memref(4, 8).identity_strides() == (8, 1)
        assert memref(2, 3, 4).identity_strides() == (12, 4, 1)

    def test_strided_layout_str(self):
        layout = MemRefLayout(DYNAMIC, (DYNAMIC, 1))
        assert "strided<[?, 1], offset: ?>" in str(
            MemRefType((4, 4), F32, layout)
        )

    def test_memory_space_str(self):
        assert str(MemRefType((4,), F32, None, 3)) == "memref<4xf32, 3>"


class TestLLVMTypes:
    def test_pointer(self):
        assert str(LLVMPointerType()) == "!llvm.ptr"

    def test_struct(self):
        s = LLVMStructType((I32, LLVMPointerType()))
        assert str(s) == "!llvm.struct<(i32, !llvm.ptr)>"

    def test_opaque(self):
        assert str(OpaqueType("foo", "bar")) == "!foo.bar"


class TestUniquing:
    """One instance per distinct type, as in MLIR's context: ``==`` is
    identity and the spelling is computed once."""

    def test_equal_fields_give_the_same_instance(self):
        assert IntegerType(32) is I32
        assert IntegerType(width=32, signed=None) is I32
        assert tensor(4, 7) is TensorType((4, 7), F32)
        assert IndexType() is INDEX
        assert MemRefType((4,), F32, MemRefLayout(0, (1,))) is MemRefType(
            (4,), F32, MemRefLayout(0, (1,)))
        assert TensorType((4,), F32) is not VectorType((4,), F32)

    @pytest.mark.parametrize("copy_of", [
        lambda t: pickle.loads(pickle.dumps(t)),
        copy.copy,
        copy.deepcopy,
        lambda t: dataclasses.replace(t),
    ])
    def test_copies_are_the_uniqued_instance(self, copy_of):
        memref_type = MemRefType((2, DYNAMIC), F32,
                                 MemRefLayout(DYNAMIC, (DYNAMIC, 1)), 3)
        for t in (I32, tensor(4, 7), memref_type,
                  FunctionType((I32, tensor(2)), (F32,)),
                  LLVMStructType((I32, LLVMPointerType()))):
            assert copy_of(t) is t

    def test_replace_reinterns(self):
        assert dataclasses.replace(tensor(4, 7), shape=(2,)) is tensor(2)

    def test_threads_racing_on_a_miss_get_one_instance(self):
        @dataclasses.dataclass(frozen=True, eq=False)
        class SlowTensorType(TensorType):
            def _spelling(self) -> str:
                time.sleep(0.01)  # the other threads reach the miss path
                return super()._spelling()

        shape = (3, 1, 4, 1, 5, 9, 2, 6)  # spelled nowhere else
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cls in (TensorType, SlowTensorType):
                barrier = threading.Barrier(8)
                seen = []

                def build():
                    barrier.wait(timeout=10)
                    seen.append(cls(shape, F32))

                threads = [threading.Thread(target=build) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == 8 and all(t is seen[0] for t in seen)
        finally:
            sys.setswitchinterval(interval)

    def test_spelling_is_one_string_object(self):
        t = tensor(4, 7)
        assert str(t) is str(t) is str(TensorType((4, 7), F32))
        assert str(I32) is str(I32)

    def test_the_table_drops_a_type_nothing_holds(self):
        t = TensorType((8, 6, 7, 5), F32)
        ref = weakref.ref(t)
        del t
        assert ref() is None

    def test_an_unhashable_field_raises_at_construction(self):
        with pytest.raises(TypeError, match="unhashable"):
            TensorType([4, 7], F32)

    def test_a_subclass_with_value_equality_is_still_uniqued(self):
        @dataclasses.dataclass(frozen=True)  # eq=False forgotten
        class Tagged(Type):
            tag: str

            def _spelling(self) -> str:
                return f"!test.tagged<{self.tag}>"

        assert Tagged("a") is Tagged("a")
        assert Tagged("a") is not Tagged("b")
        assert str(Tagged("a")) == "!test.tagged<a>"
