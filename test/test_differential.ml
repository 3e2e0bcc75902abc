(** Differential property testing: randomly generated C programs must
    behave identically on all four simulated targets.

    This is the strongest whole-pipeline check in the suite: it exercises
    the front end, the shared code generator against four register/calling
    conventions, four instruction encoders, the SIM-MIPS delay-slot
    scheduler (whose bugs would change answers, not style), the linker,
    and the CPU semantics — any divergence between targets fails. *)

open Ldb_machine

let run_on arch (src : string) : string =
  let img, _ = Ldb_link.Driver.build ~arch [ ("rand.c", src) ] in
  let p = Ldb_link.Link.load img in
  match Proc.run ~fuel:5_000_000 p with
  | Proc.Exited 0 -> Proc.output p
  | Proc.Exited n -> Printf.sprintf "<exit %d>" n
  | Proc.Stopped (s, _) -> Printf.sprintf "<%s>" (Signal.name s)
  | Proc.Running -> "<fuel>"

let prop_all_targets_agree =
  Testkit.qtest "random programs agree across all four targets" ~count:60 Randprog.arb_program
    (fun src ->
      let outs = List.map (fun arch -> run_on arch src) Arch.all in
      match outs with
      | first :: rest ->
          (* must run cleanly AND identically everywhere *)
          (not (String.length first > 0 && first.[0] = '<'))
          && List.for_all (String.equal first) rest
      | [] -> true)

let prop_debug_does_not_change_results =
  Testkit.qtest "-g never changes a program's results" ~count:30 Randprog.arb_program (fun src ->
      List.for_all
        (fun arch ->
          let run ~debug =
            let img, _ = Ldb_link.Driver.build ~debug ~arch [ ("r.c", src) ] in
            let p = Ldb_link.Link.load img in
            ignore (Proc.run ~fuel:5_000_000 p);
            Proc.output p
          in
          String.equal (run ~debug:true) (run ~debug:false))
        [ Arch.Mips; Arch.Vax ])

let () =
  Alcotest.run "differential"
    [ ("random programs", [ prop_all_targets_agree; prop_debug_does_not_change_results ]) ]
