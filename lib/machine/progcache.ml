(** Compiled-program cache.

    Bench sweeps and repeated test launches compile the same frontend
    kernel with the same options over and over (every sweep point, every
    autotune candidate re-runs the full pass stack + codegen). This
    module memoizes [kernel fingerprint x config -> compiled artifact].

    The fingerprint is content-based: a digest of the kernel's
    structure with values renumbered by first occurrence, so two
    structurally identical kernels built at different times (with
    different global value ids) hash identically. Kernel attributes,
    parameter/result types and float constants (bit-exact) are part of
    it, so changing any of them misses the cache; the caller appends
    its own option encoding to the key so changing any config field
    misses too.

    The table is guarded by a mutex: parallel figure sweeps compile from
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
    {!Tawa_obs.Registry}, so long-lived caches surface in its snapshot
    (perfbench reads it) without ad-hoc printing. *)
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

(* The pure image of a kernel that {!kernel_fingerprint} digests:
   every value becomes its index in first-occurrence order (hints and
   global ids erased), and a defined value (result or parameter) keeps
   its type; everything else is kept as is. *)
type fp_op = {
  f_results : (int * Types.ty) list;
  f_opcode : Op.opcode;
  f_operands : int list;
  f_attrs : (string * Op.attr) list;
  f_regions : fp_block list list;
}

and fp_block = { f_params : (int * Types.ty) list; f_ops : fp_op list }

(** Content fingerprint of a kernel: a digest of its structure — name,
    parameter types, kernel attributes and, per op, the opcode, operand
    and result indices, result types, attributes and regions with their
    block parameters. Values are numbered by first occurrence, so two
    structurally identical kernels built at different times (different
    global value ids) share a fingerprint. Floats (constants and
    attributes) are compared bit-exactly. Not memoized: kernels are
    mutable ({!Kernel.set_attr}, {!Op.set_attr}, operand rewrites). *)
let kernel_fingerprint (k : Kernel.t) =
  let ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let index v =
    let id = Value.id v in
    match Hashtbl.find_opt ids id with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids id i;
      i
  in
  let def v = (index v, Value.ty v) in
  (* [List.map] applies [f] front to back; the explicit [let]s fix the
     numbering order (results, operands, regions). *)
  let rec op (o : Op.op) =
    let f_results = List.map def o.Op.results in
    let f_operands = List.map index o.Op.operands in
    let f_regions = List.map region o.Op.regions in
    { f_results; f_opcode = o.Op.opcode; f_operands; f_attrs = o.Op.attrs; f_regions }
  and block (b : Op.block) =
    let f_params = List.map def b.Op.params in
    { f_params; f_ops = List.map op b.Op.ops }
  and region (r : Op.region) = List.map block r.Op.blocks in
  let params = List.map def k.Kernel.params in
  let tree = (k.Kernel.name, params, k.Kernel.attrs, region k.Kernel.body) in
  (* [No_sharing]: the bytes must not depend on which subterms happen
     to be physically shared. *)
  Digest.to_hex (Digest.string (Marshal.to_string tree [ Marshal.No_sharing ]))

(* Fingerprints of live programs, by physical identity. An
   [Isa.program] is never mutated after codegen (its arrays included),
   so a program value's fingerprint never changes; a [{ p with ... }]
   copy is a different value and gets its own. The table is weak in its
   keys, reset when it reaches [memo_max] entries, and locked: pool
   domains prepare launches at once. *)
module Phys = Ephemeron.K1.Make (struct
  type t = Isa.program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : string Phys.t = Phys.create 64
let memo_lock = Mutex.create ()
let memo_max = 1024

(** Content fingerprint of a machine program: digest of its marshalled
    form. [Isa.program] is pure data (no closures, no cycles), and
    register/alloc/barrier ids are assigned densely per program by
    codegen, so structural equality implies identical marshalling.
    Keys the decode cache ({!Engine}) the way {!kernel_fingerprint}
    keys the compile cache. Programs are never mutated after codegen,
    so the digest is computed at most once per program value
    (memoized by physical identity) and a repeated launch of the same
    program marshals nothing. *)
let program_fingerprint (p : Isa.program) =
  Mutex.lock memo_lock;
  let hit = Phys.find_opt memo p in
  Mutex.unlock memo_lock;
  match hit with
  | Some fp -> fp
  | None ->
    let fp = Digest.to_hex (Digest.string (Marshal.to_string p [])) in
    Mutex.lock memo_lock;
    if Phys.length memo >= memo_max then Phys.reset memo;
    Phys.replace memo p fp;
    Mutex.unlock memo_lock;
    fp
