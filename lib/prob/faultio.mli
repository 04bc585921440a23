(** Deterministic fault injection over a syscall facade.

    All snapshot-container IO (result-cache entries, extmem spill runs and
    manifests, governed checkpoints) goes through {!read_file},
    {!write_file} and {!rename}. With no plan installed they are plain
    syscalls behind EINTR/short-transfer retry loops. An installed
    {!plan} deals seeded, replayable faults into those operations: the
    same seed against the same operation sequence deals the same faults,
    and {!trace} exposes the dealt sequence for cross-run comparison.

    Faults are either absorbed by a clean retry (EINTR, short transfers),
    surfaced as the typed one-line {!Io} error (ENOSPC), made detectable
    by the container CRC (torn renames), or simulate kill -9 debris
    ({!Crash_point}). Nothing is ever silently wrong. *)

type site = Read | Write | Rename

type fault =
  | Eintr  (** transient: the syscall raises EINTR once, the loop retries *)
  | Short  (** transient: a partial transfer, the loop continues *)
  | Enospc  (** hard: the operation fails with a typed {!Io} error *)
  | Torn  (** rename only: the destination receives a CRC-invalid image *)
  | Crash  (** kill -9 at this instant: partial debris + {!Crash_point} *)

exception Crash_point of string
(** A simulated kill -9 mid-operation. Only a chaos harness should catch
    it; everything below must leave recoverable state behind. *)

exception Io of string
(** A typed one-line IO failure, real or injected. *)

type event = { op : int; site : site; path : string; fault : fault }

type stats = {
  ops : int;  (** facade operations that consulted the plan *)
  eintr : int;
  short : int;
  enospc : int;
  torn : int;
  crashes : int;
}

(** {1 Plans} *)

type plan

val plan :
  ?eintr:float ->
  ?short:float ->
  ?enospc:float ->
  ?torn:float ->
  ?crash:float ->
  seed:int ->
  unit ->
  plan
(** A rate-based plan: each facade operation draws once from a splitmix64
    stream seeded by [seed] and is dealt at most one fault. Rates are
    probabilities in [0, 1]; kinds inapplicable to a site are skipped. *)

val plan_rate : seed:int -> float -> plan
(** The single-knob mix the CLI's [--fault-rate] expands to: 35% of
    [rate] each to EINTR and short transfers, 15% each to ENOSPC and torn
    renames, no in-process crash points (crash drills are real kill -9). *)

val script : (site * int * fault) list -> seed:int -> plan
(** Deal exactly the listed faults: [(site, n, fault)] hits the [n]th
    (1-based) operation of [site]. Raises [Invalid_argument] on a kind
    inapplicable to its site. [seed] feeds cut points for torn/crash. Kept
    for tests, which place each fault on one operation. *)

val seed_of : plan -> int
val stats : plan -> stats

val trace : plan -> event list
(** The dealt faults in operation order — equal traces for equal seeds
    over equal operation sequences is the replayability contract. *)

(** {1 Installation} *)

val install : plan -> unit
(** Make [plan] the process-global fault source. Plan state is
    mutex-guarded; multi-domain callers each observe a plan-order draw. *)

val clear : unit -> unit
val installed : unit -> plan option

val with_plan : plan -> (unit -> 'a) -> 'a
(** [install], run, [clear] — exception-safe. Kept for tests, which run
    one operation under a plan. *)

(** {1 The facade} *)

val read_file : string -> string
(** Whole-file read. Raises {!Io} on failure. *)

val write_file : path:string -> string -> unit
(** Whole-file create/truncate write. Raises {!Io} or {!Crash_point}. *)

val rename : src:string -> dst:string -> unit
(** Rename, the commit point of every tmp+rename write. Raises {!Io},
    {!Crash_point}, or silently installs a torn destination that the
    container CRC will reject. *)

val crash_site : string -> unit
(** A named kill-at-a-seam drill point (extmem commits its per-level
    manifest through one): no-op unless the plan deals [Crash] to the
    next rename-class operation. *)
