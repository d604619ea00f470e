module Interp = Altune_kernellang.Interp
module Ast = Altune_kernellang.Ast

let is_power_of_two n = n > 0 && n land (n - 1) = 0

type cache = {
  sets : int;
  ways : int;
  line_bytes : int;
  (* tags.(set) is an array of line tags, most recently used first;
     -1 = empty way. *)
  tags : int array array;
}

let create_cache ~size_bytes ~line_bytes ~ways =
  if not (is_power_of_two size_bytes && is_power_of_two line_bytes) then
    invalid_arg "Cache_sim.create_cache: sizes must be powers of two";
  if ways <= 0 then invalid_arg "Cache_sim.create_cache: ways must be positive";
  let lines = size_bytes / line_bytes in
  if lines = 0 || lines mod ways <> 0 then
    invalid_arg "Cache_sim.create_cache: ways must divide the line count";
  let sets = lines / ways in
  { sets; ways; line_bytes; tags = Array.make_matrix sets ways (-1) }

let cache_reset c =
  Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) c.tags

(* LRU within a set implemented as a move-to-front array: order is
   recency, so eviction removes the last element. *)
let cache_access c address =
  let line = address / c.line_bytes in
  let set = c.tags.(line mod c.sets) in
  let tag = line / c.sets in
  let rec find i = if i >= c.ways then -1 else if set.(i) = tag then i else find (i + 1) in
  let pos = find 0 in
  if pos >= 0 then begin
    (* Hit: move to front. *)
    for k = pos downto 1 do
      set.(k) <- set.(k - 1)
    done;
    set.(0) <- tag;
    true
  end
  else begin
    (* Miss: insert at front, evicting the LRU way. *)
    for k = c.ways - 1 downto 1 do
      set.(k) <- set.(k - 1)
    done;
    set.(0) <- tag;
    false
  end

type stats = { accesses : int; l1_misses : int; l2_misses : int }

type hierarchy = {
  l1 : cache;
  l2 : cache;
  mutable accesses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
}

let create_hierarchy ?(l1_bytes = 32_768) ?(l2_bytes = 262_144)
    ?(line_bytes = 64) ?(l1_ways = 8) ?(l2_ways = 8) () =
  {
    l1 = create_cache ~size_bytes:l1_bytes ~line_bytes ~ways:l1_ways;
    l2 = create_cache ~size_bytes:l2_bytes ~line_bytes ~ways:l2_ways;
    accesses = 0;
    l1_misses = 0;
    l2_misses = 0;
  }

let hierarchy_access h address =
  h.accesses <- h.accesses + 1;
  if not (cache_access h.l1 address) then begin
    h.l1_misses <- h.l1_misses + 1;
    if not (cache_access h.l2 address) then h.l2_misses <- h.l2_misses + 1
  end

let hierarchy_stats h =
  { accesses = h.accesses; l1_misses = h.l1_misses; l2_misses = h.l2_misses }

let hierarchy_reset h =
  cache_reset h.l1;
  cache_reset h.l2;
  h.accesses <- 0;
  h.l1_misses <- 0;
  h.l2_misses <- 0

let simulate_kernel ?param_overrides ?(element_bytes = 8) h
    (kernel : Ast.kernel) =
  (* The access stream reads [bases], which is filled below, before
     [Interp.run]. *)
  let bases = Hashtbl.create 8 in
  let on_access array offset _is_write =
    hierarchy_access h (Hashtbl.find bases array + (offset * element_bytes))
  in
  let env = Interp.init ?param_overrides ~on_access kernel in
  (* Contiguous layout, line-aligned bases, declaration order. *)
  let line = h.l1.line_bytes in
  let align a = (a + line - 1) / line * line in
  let next = ref 0 in
  List.iter
    (fun (d : Ast.array_decl) ->
      Hashtbl.replace bases d.array_name !next;
      next :=
        align (!next + (Interp.array_extent env d.array_name * element_bytes)))
    kernel.arrays;
  Interp.run env kernel;
  hierarchy_stats h
