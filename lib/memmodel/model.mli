(** Memory consistency models as reorder-probability matrices.

    Following Table 1 and Appendix A.2: a model assigns to every ordered
    pair of instruction types (tau1 = the earlier instruction, tau2 = the
    later, currently-settling instruction) a swap probability
    rho(tau1, tau2), which is either 0 (the pair must stay ordered) or the
    settling probability [s] (1/2 in the paper's normal form). The general
    form of footnote 3 — distinct nonzero probabilities per pair — is also
    expressible via {!custom}. *)

type family =
  | Sequential_consistency  (** SC: nothing reorders. *)
  | Total_store_order  (** TSO: LD may complete before an earlier ST. *)
  | Partial_store_order  (** PSO: TSO plus ST/ST reordering. *)
  | Weak_ordering  (** WO: every pair may reorder. *)
  | Custom  (** user-supplied matrix (footnote 3 generality). *)

type t
(** A memory model: a named swap-probability matrix. *)

val sc : t
(** Sequential Consistency with the paper's parameters. *)

val tso : ?s:float -> unit -> t
(** Total Store Order; [s] is the per-swap success probability
    (default 1/2). *)

val pso : ?s:float -> unit -> t
(** Partial Store Order. *)

val wo : ?s:float -> unit -> t
(** Weak Ordering. *)

val custom :
  name:string -> st_st:float -> st_ld:float -> ld_st:float -> ld_ld:float -> t
(** [custom ~name ~st_st ~st_ld ~ld_st ~ld_ld] builds an arbitrary matrix;
    [st_ld] is the probability that a settling LD swaps above an earlier ST
    (the pair TSO relaxes), and analogously for the others. Probabilities
    must lie in [0, 1]. *)

val all_standard : t list
(** [sc; tso (); pso (); wo ()] — the Table 1 models, in the table's
    strength order. Kept for tests, which sweep all four. *)

val family : t -> family
val name : t -> string
val s : t -> float
(** The nominal swap probability used for this model's relaxed pairs. *)

val family_name : family -> string
(** Display name of a family: ["SC"], ["TSO"], ["PSO"], ["WO"] or
    ["custom"]. *)

val swap_probability : t -> earlier:Op.kind -> later:Op.kind -> float
(** [swap_probability t ~earlier ~later] is rho(earlier, later). *)

val relaxes : t -> earlier:Op.kind -> later:Op.kind -> bool
(** Whether the ordered pair may reorder at all (Table 1's check marks). *)

val equal : t -> t -> bool
(** Structural equality of name, family and matrix. *)

val pp : Format.formatter -> t -> unit

val table1 : unit -> string
(** Render the paper's Table 1 for {!all_standard}. *)
