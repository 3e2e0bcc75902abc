(** Host-side plumbing for the paper's connection mechanisms (Sec. 1, 4.2):
    forking the target as a child ([spawn]), connecting to an existing
    process over the (simulated) network ([attach_existing]), and being
    contacted by a faulty process whose nub preserved its state (a
    process started with [launch ~paused:false] runs until it faults or
    exits, then [attach_existing]). *)

open Ldb_machine
module Nub = Ldb_nub.Nub
module Chan = Ldb_nub.Chan

(** A target program running under its nub on the simulated host. *)
type process = {
  hp_proc : Proc.t;
  hp_nub : Nub.t;
  hp_image : Ldb_link.Link.image;
  hp_loader_ps : string;
}

(** Compile, link and load once; launch a fresh process of the built
    program.  A server hosting many sessions of the same program builds
    with {!build_image} and launches each process with {!launch_image} —
    recompiling per session would swamp the soak with compiler time. *)
let build_image ?(debug = true) ?(defer = true) ?(compress = false) ~(arch : Arch.t)
    (sources : (string * string) list) : Ldb_link.Link.image * string =
  Ldb_link.Driver.build ~debug ~defer ~compress ~arch sources

(** Load a prebuilt image into a fresh process under a fresh nub. *)
let launch_image ?(paused = true) ((img : Ldb_link.Link.image), (loader_ps : string)) :
    process =
  let proc = Ldb_link.Link.load img in
  let nub = Nub.create proc in
  Nub.start ~paused nub;
  { hp_proc = proc; hp_nub = nub; hp_image = img; hp_loader_ps = loader_ps }

(** Compile, link and load [sources] for [arch]; the program starts under
    its nub, paused before main. *)
let launch ?debug ?defer ?compress ?paused ~(arch : Arch.t) (sources : (string * string) list)
    : process =
  launch_image ?paused (build_image ?debug ?defer ?compress ~arch sources)

(** Open a debugger connection to a process: returns the debugger-side
    endpoint, with its pump wired to the process's nub (the discrete-event
    stand-in for a socket to another machine). *)
let open_channel (p : process) : Chan.endpoint =
  let dbg_end, nub_end = Chan.pair ~labels:("ldb", "nub") () in
  Nub.attach p.hp_nub nub_end;
  Chan.set_pump dbg_end (fun () -> Nub.pump p.hp_nub);
  dbg_end

(** Like {!open_channel}, but with {!Ldb_nub.Faultchan} interposed on the
    link: messages in both directions suffer seeded, reproducible faults.
    Returns the injector so callers can inspect what was injected. *)
let open_faulty_channel ?armed (p : process) ~(seed : int)
    (profile : Ldb_nub.Faultchan.profile) : Chan.endpoint * Ldb_nub.Faultchan.t =
  let dbg_end, nub_end = Chan.pair ~labels:("ldb", "nub") () in
  Nub.attach p.hp_nub nub_end;
  Chan.set_pump dbg_end (fun () -> Nub.pump p.hp_nub);
  let fc = Ldb_nub.Faultchan.install ?armed ~seed profile ~dbg:dbg_end ~nub:nub_end in
  (dbg_end, fc)

(** Attach to an already-running (or faulted) process — the network /
    post-mortem mechanism. *)
let attach_existing (d : Ldb.t) ~name (p : process) : Ldb.target =
  Ldb.connect d ~name ~loader_ps:p.hp_loader_ps (open_channel p)

(** Spawn under the debugger: launch paused and attach. *)
let spawn (d : Ldb.t) ?debug ?defer ?compress ~arch ~name sources : process * Ldb.target =
  let p = launch ?debug ?defer ?compress ~paused:true ~arch sources in
  (p, attach_existing d ~name p)

(** Reattach a target to its (surviving) nub after the link died: open a
    fresh channel and run the debugger's resync — replay Hello, re-read
    the stop context, re-validate breakpoints. *)
let reattach (d : Ldb.t) (tg : Ldb.target) (p : process) : Ldb.state =
  Ldb.reattach d tg (open_channel p)

let output (p : process) = Proc.output p.hp_proc
