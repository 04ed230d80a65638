(** Compiled-program cache.

    Bench sweeps and repeated test launches compile the same frontend
    kernel with the same options over and over (every sweep point, every
    autotune candidate re-runs the full pass stack + codegen). This
    module memoizes [kernel fingerprint x config -> compiled artifact].

    The fingerprint is content-based: the kernel's canonical printed
    form with SSA value names renumbered by first occurrence, so two
    structurally identical kernels built at different times (with
    different global value ids) hash identically. Kernel attributes and
    parameter/result types are part of the printed form, so changing any
    attribute misses the cache; the caller appends its own option
    encoding to the key so changing any config field misses too.

    The table is guarded by a mutex: parallel bench sweeps compile from
    several domains at once. Lookups and insertions are locked; a missed
    compile runs outside the lock (two domains racing on the same key
    may both compile, last insert wins — both artifacts are equivalent
    by construction). *)

open Tawa_ir

type stats = { mutable hits : int; mutable misses : int; mutable evictions : int }

type 'v t = {
  table : (string, 'v) Hashtbl.t;
  lock : Mutex.t;
  stats : stats;
  max_entries : int;
}

(** [create ?name ()] — a [name] additionally registers
    [progcache.<name>.{hits,misses,evictions,entries}] gauges in
    {!Tawa_obs.Registry}, so long-lived caches surface in [--obs]
    output and [bench --json] without ad-hoc printing. *)
let create ?name ?(max_entries = 512) () =
  let c =
    { table = Hashtbl.create 64; lock = Mutex.create ();
      stats = { hits = 0; misses = 0; evictions = 0 }; max_entries }
  in
  (match name with
  | None -> ()
  | Some n ->
    let gauge field f =
      Tawa_obs.Registry.register_gauge
        (Printf.sprintf "progcache.%s.%s" n field)
        (fun () ->
          Mutex.lock c.lock;
          let v = f () in
          Mutex.unlock c.lock;
          Tawa_obs.Registry.Int v)
    in
    gauge "hits" (fun () -> c.stats.hits);
    gauge "misses" (fun () -> c.stats.misses);
    gauge "evictions" (fun () -> c.stats.evictions);
    gauge "entries" (fun () -> Hashtbl.length c.table));
  c

let clear c =
  Mutex.lock c.lock;
  Hashtbl.reset c.table;
  c.stats.hits <- 0;
  c.stats.misses <- 0;
  c.stats.evictions <- 0;
  Mutex.unlock c.lock

(** Snapshot of the hit/miss/eviction counters (copied, safe to keep). *)
let stats c =
  Mutex.lock c.lock;
  let s = { hits = c.stats.hits; misses = c.stats.misses; evictions = c.stats.evictions } in
  Mutex.unlock c.lock;
  s

let length c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.table in
  Mutex.unlock c.lock;
  n

(** [find_or_add c ~key f]: return the cached artifact for [key], or
    compute it with [f], cache it, and return it. *)
let find_or_add c ~key f =
  Mutex.lock c.lock;
  match Hashtbl.find_opt c.table key with
  | Some v ->
    c.stats.hits <- c.stats.hits + 1;
    Mutex.unlock c.lock;
    v
  | None ->
    c.stats.misses <- c.stats.misses + 1;
    Mutex.unlock c.lock;
    (* Compile outside the lock so independent keys proceed in
       parallel. *)
    let v = f () in
    Mutex.lock c.lock;
    if Hashtbl.length c.table >= c.max_entries then begin
      c.stats.evictions <- c.stats.evictions + Hashtbl.length c.table;
      Hashtbl.reset c.table
    end;
    Hashtbl.replace c.table key v;
    Mutex.unlock c.lock;
    v

(* ----------------------- kernel fingerprint ----------------------- *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(** Canonicalize a printed kernel: every SSA value token ([%name_id])
    is renumbered by first occurrence, erasing the global value-id
    counter so structurally identical kernels print identically. *)
let canonicalize_printed s =
  let n = String.length s in
  let buf = Buffer.create n in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      let tok = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt ids tok with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids tok id;
          id
      in
      Buffer.add_string buf "%v";
      Buffer.add_string buf (string_of_int id);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(** Content fingerprint of a kernel: digest of its canonicalized
    printed form (ops, types, attributes — everything codegen sees). *)
let kernel_fingerprint (k : Kernel.t) =
  Digest.to_hex (Digest.string (canonicalize_printed (Printer.kernel_to_string k)))

(** Content fingerprint of a machine program: digest of its marshalled
    form. [Isa.program] is pure data (no closures, no cycles), and
    register/alloc/barrier ids are assigned densely per program by
    codegen, so structural equality implies identical marshalling.
    Keys the decode cache ({!Engine}) the way {!kernel_fingerprint}
    keys the compile cache. *)
let program_fingerprint (p : Isa.program) =
  Digest.to_hex (Digest.string (Marshal.to_string p []))
