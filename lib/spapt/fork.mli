(** The names perfbench's evaluation replay calls, kept after the
    transformation-prefix trie was deleted.  Resolution applies every
    recipe from scratch, exactly as {!Spapt.transformed} does; DESIGN.md
    §11 records the measurements that retired the trie. *)

type t

val create : Altune_kernellang.Ast.kernel -> t
(** A resolver for recipes applied to the given untransformed kernel. *)

val resolve :
  t ->
  Altune_kernellang.Verify.step list ->
  (Altune_kernellang.Ast.kernel, Altune_kernellang.Transform.error) result
(** [Verify.apply_steps steps] on the kernel given to {!create}. *)

type stats = {
  nodes : int;
  steps_reused : int;
  steps_applied : int;
}
(** The trie's counters, which {!Spapt.fork_stats} reports as zeros. *)
