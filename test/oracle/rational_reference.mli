(** The seed rational implementation: naive cross-multiply-then-normalize
    over {!Bigint_reference}, for differential tests and the
    fast-vs-reference rows of [bench --json exact]. *)

include Memrel_prob.Sigs.RATIONAL
