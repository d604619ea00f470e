(* One record per key: after all lookups the owner is the minimum id
   and [owned] counts all of its lookups, so the key is shared exactly
   when [total > owned] and its cross hits are [total - owned]. *)
type key = { mutable owner : int; mutable owned : int; mutable total : int }

type t = {
  lock : Mutex.t;
  keys : (string * string, key) Hashtbl.t;
  mutable lookups : int;
  mutable shared : int;
  mutable cross : int;
}

let create () =
  {
    lock = Mutex.create ();
    keys = Hashtbl.create 4096;
    lookups = 0;
    shared = 0;
    cross = 0;
  }

let note t ~session key =
  Mutex.lock t.lock;
  t.lookups <- t.lookups + 1;
  (match Hashtbl.find_opt t.keys key with
  | None -> Hashtbl.replace t.keys key { owner = session; owned = 1; total = 1 }
  | Some k ->
      let cross = k.total - k.owned in
      k.total <- k.total + 1;
      if session = k.owner then k.owned <- k.owned + 1
      else if session < k.owner then begin
        (* A lower id has not looked this key up before: it owns one. *)
        k.owner <- session;
        k.owned <- 1
      end;
      let cross' = k.total - k.owned in
      t.cross <- t.cross + cross' - cross;
      if cross = 0 && cross' > 0 then t.shared <- t.shared + 1);
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let entries = Hashtbl.length t.keys in
  let s =
    {
      Protocol.m_lookups = t.lookups;
      m_entries = entries;
      m_hits = t.lookups - entries;
      m_shared_keys = t.shared;
      m_cross_hits = t.cross;
    }
  in
  Mutex.unlock t.lock;
  s
