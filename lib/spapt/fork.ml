type t = Altune_kernellang.Ast.kernel

type stats = { nodes : int; steps_reused : int; steps_applied : int }

let create kernel = kernel
let resolve kernel steps = Altune_kernellang.Verify.apply_steps steps kernel
