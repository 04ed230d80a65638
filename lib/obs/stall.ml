(** Stall-attribution bucket taxonomy (DESIGN.md §10).

    Every cycle a warp group's clock advances is charged to exactly one
    bucket, by the decoded engine and by the test oracle alike:

    - [compute]: scalar ALU work, control flow, tile element-wise ops,
      descriptor setup, work-queue pops.
    - [tma]: issue + serialization of async copies (TMA loads/stores,
      cp.async) and synchronous global/shared memory instructions.
    - [tensorcore]: wgmma issue/commit plus time spent blocked in
      [wgmma.wait] for in-flight groups to drain.
    - [mbar_wait]: time blocked on an mbarrier phase (producer/consumer
      rendezvous), including the fixed [mbar_cycles] synchronization cost.
    - [ring_wait]: time blocked on an aref ring slot ([cp.wait_ring]).
    - [fence_wait]: time parked at a named-barrier fence waiting for the
      other warp groups, including the [fence_cycles] release cost.
    - [idle]: wall-clock minus the WG's final local time — the tail where
      this WG had exited but the CTA was still running. Computed when a
      profile is assembled, not during stepping.

    Hot paths index bucket arrays with the integer constants below;
    [names] gives each its printed name. *)

let compute = 0
let tma = 1
let tensorcore = 2
let mbar_wait = 3
let ring_wait = 4
let fence_wait = 5
let idle = 6
let num = 7

let names =
  [| "compute"; "tma"; "tensorcore"; "mbar-wait"; "ring-wait"; "fence-wait"; "idle" |]

let name_of_index i = names.(i)
