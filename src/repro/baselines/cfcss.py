"""CFCSS — Control Flow Checking by Software Signatures (Oh et al. 2002).

The signature-based technique the paper cites as related work [10] and
argues against for runnable-level monitoring: "Such a technique suffers
from high performance overhead and low flexibility with regard to
modification of programs" (§2).  To make the overhead comparison honest,
this is a faithful implementation of the published algorithm, not a
strawman:

* every basic block *v* gets a unique static signature ``s_v``,
* a global run-time signature ``G`` is updated at each block entry with
  the static XOR difference ``d_v = s_v ⊕ s_{pred(v)}``,
* branch-fan-in blocks additionally XOR a run-time adjusting signature
  ``D``, which each legal predecessor sets before branching,
* ``G ≠ s_v`` after the update signals a control-flow error.

Instrumentation cost is counted in instructions executed, matching the
paper's overhead argument: 2 instructions per block (XOR + compare),
+1 for the extra XOR in fan-in blocks, +1 in every predecessor that must
set ``D``.  The known *aliasing* limitation of CFCSS (illegal branches
between blocks sharing fan-in predecessor sets may go undetected) is
preserved — and demonstrated by the test-suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class CfgError(ValueError):
    """Raised for invalid control-flow graphs or walks."""


class BasicBlockGraph:
    """A control-flow graph of basic blocks."""

    def __init__(self) -> None:
        self._successors: Dict[str, List[str]] = {}
        self._predecessors: Dict[str, List[str]] = {}

    def add_block(self, name: str) -> None:
        if name in self._successors:
            raise CfgError(f"duplicate block {name!r}")
        self._successors[name] = []
        self._predecessors[name] = []

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._successors or dst not in self._successors:
            raise CfgError(f"edge {src!r}->{dst!r} references unknown block")
        if dst in self._successors[src]:
            return
        self._successors[src].append(dst)
        self._predecessors[dst].append(src)

    def add_path(self, blocks: List[str]) -> None:
        """Add blocks (if new) and chain them with edges."""
        for block in blocks:
            if block not in self._successors:
                self.add_block(block)
        for src, dst in zip(blocks, blocks[1:]):
            self.add_edge(src, dst)

    def blocks(self) -> List[str]:
        return list(self._successors)

    def predecessors(self, block: str) -> List[str]:
        return list(self._predecessors[block])

    def is_edge(self, src: str, dst: str) -> bool:
        return dst in self._successors.get(src, ())


class CfcssChecker:
    """Signature monitoring of walks over a :class:`BasicBlockGraph`."""

    def __init__(self, graph: BasicBlockGraph, entry: str) -> None:
        if entry not in graph.blocks():
            raise CfgError(f"unknown entry block {entry!r}")
        self.graph = graph
        self.entry = entry
        #: static signatures (unique per block).
        self.signatures: Dict[str, int] = {}
        #: static XOR differences d_v.
        self.differences: Dict[str, int] = {}
        #: fan-in blocks (>1 predecessor) needing the adjusting signature.
        self.fan_in: Set[str] = set()
        #: (pred, fan-in succ) → value the predecessor loads into D.
        self.d_adjust: Dict[tuple, int] = {}
        self._instrument()
        # run-time state
        self.G = 0
        self.D = 0
        self.current: Optional[str] = None
        self.instruction_count = 0
        self.detections: List[tuple] = []
        self.steps = 0

    # ------------------------------------------------------------------
    # instrumentation (compile time)
    # ------------------------------------------------------------------
    def _instrument(self) -> None:
        for index, block in enumerate(self.graph.blocks()):
            # Unique signatures; spaced values avoid trivial XOR aliases.
            self.signatures[block] = (index + 1) * 0x2B + 1
        for block in self.graph.blocks():
            preds = self.graph.predecessors(block)
            if not preds:
                self.differences[block] = self.signatures[block]
                continue
            base = preds[0]
            self.differences[block] = self.signatures[block] ^ self.signatures[base]
            if len(preds) > 1:
                self.fan_in.add(block)
                for pred in preds:
                    self.d_adjust[(pred, block)] = (
                        self.signatures[pred] ^ self.signatures[base]
                    )

    def instrumentation_size(self) -> int:
        """Static instruction count added to the program (code size
        overhead): 2 per block, +1 per fan-in block, +1 per (pred,
        fan-in) branch-out site."""
        return 2 * len(self.graph.blocks()) + len(self.fan_in) + len(self.d_adjust)

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enter the program at the entry block."""
        self.current = self.entry
        self.G = self.signatures[self.entry]
        self.D = 0
        self.instruction_count += 2  # entry block's update + compare
        self.steps += 1

    def step(self, next_block: str) -> bool:
        """Execute the transition to ``next_block``.

        A *legal* transition also executes the predecessor's D-setting
        code; an illegal one (the injected fault) jumps straight into
        ``next_block``'s signature check.  Returns True when the check
        passes (i.e. the fault went undetected or the edge was legal).
        """
        if self.current is None:
            raise CfgError("checker not started")
        if next_block not in self.signatures:
            raise CfgError(f"unknown block {next_block!r}")
        src = self.current
        legal = self.graph.is_edge(src, next_block)
        if legal and (src, next_block) in self.d_adjust:
            self.D = self.d_adjust[(src, next_block)]
            self.instruction_count += 1  # the predecessor sets D

        # --- block entry code of next_block ---
        self.G ^= self.differences[next_block]
        self.instruction_count += 1
        if next_block in self.fan_in:
            self.G ^= self.D
            self.instruction_count += 1
        self.instruction_count += 1  # compare G with s_v
        self.steps += 1
        self.current = next_block
        ok = self.G == self.signatures[next_block]
        if not ok:
            self.detections.append((src, next_block))
            # Real CFCSS branches to an error handler; for continued
            # observation the checker resynchronises on the actual block.
            self.G = self.signatures[next_block]
        return ok

    def run_walk(self, walk: List[str]) -> int:
        """Execute a whole walk (first element must be the entry);
        returns the number of detections raised."""
        before = len(self.detections)
        if not walk:
            return 0
        if walk[0] != self.entry:
            raise CfgError("walk must begin at the entry block")
        self.start()
        for block in walk[1:]:
            self.step(block)
        return len(self.detections) - before
