"""The SOTER compiler: program declarations → executable RTA system.

The paper's tool chain compiles a SOTER program into C code plus generated
decision modules after checking that every declared RTA module is
well-formed (Section V, "SOTER tool chain").  This module performs the same
pipeline in-process:

1. validate the program's topics and nodes against the programming model,
2. run the well-formedness checks for every RTA module declaration,
3. generate the decision module node for each module,
4. assemble the composed :class:`~repro.core.system.RTASystem`, rechecking
   composability, and
5. optionally emit C-like source for inspection
   (:mod:`repro.core.codegen`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .codegen import generate_c_source
from .decision import DecisionModule
from .errors import CompilationError
from .module import RTAModuleInstance, RTAModuleSpec
from .node import Node
from .system import RTASystem
from .topics import Topic, TopicRegistry
from .wellformed import (
    WellFormednessChecker,
    WellFormednessReport,
    structural_report,
)


@dataclass
class Program:
    """A SOTER program: topics, unprotected nodes, and RTA module declarations."""

    name: str
    topics: List[Topic] = field(default_factory=list)
    nodes: List[Node] = field(default_factory=list)
    modules: List[RTAModuleSpec] = field(default_factory=list)

    def declare_topic(self, topic: Topic) -> Topic:
        self.topics.append(topic)
        return topic

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def add_module(self, spec: RTAModuleSpec) -> RTAModuleSpec:
        self.modules.append(spec)
        return spec


@dataclass
class CompilationResult:
    """Everything the compiler produced for a program."""

    program: Program
    system: RTASystem
    reports: Dict[str, WellFormednessReport]
    diagnostics: List[str] = field(default_factory=list)
    generated_source: str = ""

    @property
    def well_formed(self) -> bool:
        return all(report.passed for report in self.reports.values())

    def report_for(self, module_name: str) -> WellFormednessReport:
        return self.reports[module_name]

    def summary(self) -> str:
        lines = [f"compilation of program {self.program.name!r}:"]
        for name, report in self.reports.items():
            status = "well-formed" if report.passed else "NOT well-formed"
            lines.append(f"  module {name}: {status}")
        for diagnostic in self.diagnostics:
            lines.append(f"  note: {diagnostic}")
        return "\n".join(lines)


class SoterCompiler:
    """Compiles SOTER programs, generating decision modules and glue."""

    def __init__(
        self,
        checker: Optional[WellFormednessChecker] = None,
        strict: bool = True,
        emit_source: bool = False,
    ) -> None:
        self.checker = checker
        self.strict = strict
        self.emit_source = emit_source

    # ------------------------------------------------------------------ #
    # validation passes
    # ------------------------------------------------------------------ #
    def _validate_program(self, program: Program) -> List[str]:
        diagnostics: List[str] = []
        if not program.name:
            raise CompilationError("programs must have a non-empty name")
        # Topic declarations must be unique; the registry enforces this.
        registry = TopicRegistry(program.topics)
        # Node names must be unique across plain nodes and module members.
        seen: Dict[str, str] = {}
        for node in self._all_declared_nodes(program):
            if node.name in seen:
                raise CompilationError(
                    f"node name {node.name!r} is declared more than once"
                )
            seen[node.name] = node.name
        # Warn (don't fail) when nodes use undeclared topics: undeclared
        # topics are treated as untyped environment channels.
        declared = set(registry.names())
        for node in self._all_declared_nodes(program):
            for topic in tuple(node.subscribes) + tuple(node.publishes):
                if topic not in declared:
                    diagnostics.append(
                        f"node {node.name!r} uses undeclared topic {topic!r} (treated as untyped)"
                    )
        return diagnostics

    @staticmethod
    def _all_declared_nodes(program: Program) -> List[Node]:
        nodes: List[Node] = list(program.nodes)
        for module in program.modules:
            nodes.append(module.advanced)
            nodes.append(module.safe)
        return nodes

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def compile(self, program: Program) -> CompilationResult:
        """Compile a program into an executable RTA system.

        In strict mode a failed well-formedness check raises
        :class:`CompilationError`; otherwise the failure is recorded in the
        per-module report and compilation continues (useful for the
        negative tests and the fault-injection experiments).
        """
        diagnostics = self._validate_program(program)
        reports: Dict[str, WellFormednessReport] = {}
        instances: List[RTAModuleInstance] = []
        for spec in program.modules:
            decision = DecisionModule(spec)
            if self.checker is not None:
                report = self.checker.check(spec, decision)
            else:
                report = structural_report(spec, decision)
            reports[spec.name] = report
            if self.strict and not report.passed:
                raise CompilationError(
                    f"module {spec.name!r} failed well-formedness checks",
                    diagnostics=[str(result) for result in report.failures],
                )
            instances.append(RTAModuleInstance(spec=spec, decision=decision))
        system = RTASystem(
            modules=instances,
            nodes=list(program.nodes),
            topics=TopicRegistry(program.topics),
            name=program.name,
        )
        source = generate_c_source(program, system) if self.emit_source else ""
        return CompilationResult(
            program=program,
            system=system,
            reports=reports,
            diagnostics=diagnostics,
            generated_source=source,
        )


def compile_program(
    program: Program,
    checker: Optional[WellFormednessChecker] = None,
    strict: bool = True,
    emit_source: bool = False,
) -> CompilationResult:
    """Convenience wrapper around :class:`SoterCompiler`."""
    compiler = SoterCompiler(checker=checker, strict=strict, emit_source=emit_source)
    return compiler.compile(program)
