(** Wishbranch: an OCaml reproduction of "Wish Branches: Combining
    Conditional Branching and Predication for Adaptive Predicated
    Execution" (Kim, Mutlu, Stark & Patt, MICRO-38, 2005).

    This umbrella module re-exports the whole stack:

    - {!Isa}: the WISC predicated ISA (instructions, code images, assembler)
    - {!Emu}: architectural emulator, traces, profiling
    - {!Bpred}: branch predictors, BTB, RAS, JRS confidence, loop predictor
    - {!Mem}: cache hierarchy
    - {!Sim}: the cycle-level out-of-order core with wish-branch hardware
    - {!Compiler}: the Kernel language and the five Table-3 binary flavours
    - {!Workloads}: nine SPEC INT 2000-like benchmark kernels
    - {!Experiments}: regeneration of every table and figure in the paper

    Quickstart: see [examples/quickstart.ml] —

    {[
      let bench = Wishbranch.Workloads.find ~scale:1 "gzip" in
      let bins =
        Wishbranch.Compiler.compile_all ~mem_words:bench.mem_words
          ~name:bench.name
          ~profile_data:(Wishbranch.Workloads.Bench.profile_data bench)
          bench.ast
      in
      let program = Wishbranch.Workloads.Bench.program_for bench bins.wish_jjl "A" in
      let summary = Wishbranch.Sim.Runner.simulate program in
      Printf.printf "cycles: %d\n" summary.cycles
    ]} *)

module Util = struct
  module Rng = Wish_util.Rng
  module Ring = Wish_util.Ring
  module Heap = Wish_util.Heap
  module Lru = Wish_util.Lru
  module Table = Wish_util.Table
end

module Isa = struct
  module Reg = Wish_isa.Reg
  module Inst = Wish_isa.Inst
  module Code = Wish_isa.Code
  module Asm = Wish_isa.Asm
  module Program = Wish_isa.Program
  module Parse = Wish_isa.Parse
end

module Emu = struct
  module Memory = Wish_emu.Memory
  module State = Wish_emu.State
  module Exec = Wish_emu.Exec
  module Trace = Wish_emu.Trace
  module Profile = Wish_emu.Profile
end

module Bpred = struct
  module Gshare = Wish_bpred.Gshare
  module Pas = Wish_bpred.Pas
  module Hybrid = Wish_bpred.Hybrid
  module Btb = Wish_bpred.Btb
  module Ras = Wish_bpred.Ras
  module Confidence = Wish_bpred.Confidence
  module Loop_pred = Wish_bpred.Loop_pred
end

module Mem = struct
  module Cache = Wish_mem.Cache
  module Hierarchy = Wish_mem.Hierarchy
end

module Sim = struct
  module Config = Wish_sim.Config
  module Uop = Wish_sim.Uop
  module Rat = Wish_sim.Rat
  module Oracle = Wish_sim.Oracle
  module Wish_fsm = Wish_sim.Wish_fsm
  module Core = Wish_sim.Core
  module Counters = Wish_sim.Counters
  module Runner = Wish_sim.Runner
end

module Compiler = struct
  module Ast = Wish_compiler.Ast
  module Policy = Wish_compiler.Policy
  module Codegen = Wish_compiler.Codegen

  include Wish_compiler.Compiler
end

module Workloads = struct
  module Bench = Wish_workloads.Bench

  let all = Wish_workloads.Workloads.all
  let names = Wish_workloads.Workloads.names
  let find = Wish_workloads.Workloads.find
end

module Experiments = struct
  module Lab = Wish_experiments.Lab
  module Figures = Wish_experiments.Figures
end
