(** memrel — the public facade.

    One [open Memrel] (or dune dependency on [memrel]) exposes the whole
    reproduction: the probability substrate, the memory models, the two
    random processes, the joined model, the operational machine and the
    figure renderers. Each submodule is documented in its own interface;
    see README.md for the map and DESIGN.md for the paper-to-module
    correspondence. *)

(** {1 Numerics substrate} *)

module Bigint = Memrel_prob.Bigint
module Rational = Memrel_prob.Rational
module Rng = Memrel_prob.Rng
module Stats = Memrel_prob.Stats
module Combinatorics = Memrel_prob.Combinatorics
module Series = Memrel_prob.Series
module Par = Memrel_prob.Par
module Budget = Memrel_prob.Budget
module Snapshot = Memrel_prob.Snapshot
module Prob_sigs = Memrel_prob.Sigs

(** {1 Memory models (Table 1)} *)

module Op = Memrel_memmodel.Op
module Fence = Memrel_memmodel.Fence
module Model = Memrel_memmodel.Model

(** {1 The settling process (Sections 3.1, 4)} *)

module Program = Memrel_settling.Program
module Settle = Memrel_settling.Settle
module Window = Memrel_settling.Window
module Window_analytic = Memrel_settling.Analytic
module Window_analytic_general = Memrel_settling.Analytic_general
module Window_exact_dp = Memrel_settling.Exact_dp
module Window_exact_dp_q = Memrel_settling.Exact_dp_q
module Window_joint_dp = Memrel_settling.Joint_dp
module Window_joint_dp_q = Memrel_settling.Joint_dp_q
module Window_verified = Memrel_settling.Verified
module Window_mc = Memrel_settling.Mc
module Window_scratch = Memrel_settling.Scratch

(** {1 The shift process (Section 5)} *)

module Shift = Memrel_shift.Process
module Shift_exact = Memrel_shift.Exact
module Asymptotic = Memrel_shift.Asymptotic

(** {1 The joined model (Section 6)} *)

module Joint = Memrel_interleave.Joint
module Manifestation = Memrel_interleave.Analytic
module Scaling = Memrel_interleave.Scaling
module Timeline = Memrel_interleave.Timeline

(** {1 Operational machine substrate} *)

module Instr = Memrel_machine.Instr
module Machine_state = Memrel_machine.State
module Semantics = Memrel_machine.Semantics
module Machine_exec = Memrel_machine.Exec
module Enumerate = Memrel_machine.Enumerate
module Extmem = Memrel_machine.Extmem
module Litmus = Memrel_machine.Litmus
module Litmus_parse = Memrel_machine.Parse

(** {1 Axiomatic checker (event graphs, per-model acyclicity axioms)} *)

module Axiom_event = Memrel_axiom.Event
module Axiom_order = Memrel_axiom.Order
module Axiom_trail = Memrel_axiom.Trail
module Axioms = Memrel_axiom.Axioms
module Axiom_candidate = Memrel_axiom.Candidate
module Axiom_solver = Memrel_axiom.Solver
module Axiom_differential = Memrel_axiom.Differential

(** {1 Service mode (the [memrel serve] daemon)} *)

module Service_protocol = Memrel_service.Protocol
module Service_cache = Memrel_service.Cache
module Service_pool = Memrel_service.Pool
module Service_engine = Memrel_service.Engine
module Service_server = Memrel_service.Server
module Service_client = Memrel_service.Client
module Service_clock = Memrel_service.Clock
module Faultio = Memrel_prob.Faultio

(** {1 Figure renderings} *)

module Render = Memrel_trace.Render
