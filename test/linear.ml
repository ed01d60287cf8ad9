(* The linearity gate the scale tests share: in one process, ten times the
   input may cost at most thirty times the time, where a per-item list scan
   or table rebuild costs a hundred.  Each size is timed as the best of five
   runs, each after a [Gc.compact], so a collection left over from building
   the input or from the previous run does not land in the measurement. *)

let best_of_5 f =
  List.fold_left
    (fun best () ->
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      f ();
      Float.min best (Unix.gettimeofday () -. t0))
    infinity [ (); (); (); (); () ]

(* [make n] builds the input at [n] items (components, definitions or
   instances); [run] is the step under test. *)
let check what make run =
  let small = make 2_000 in
  let large = make 20_000 in
  let t_small = best_of_5 (fun () -> ignore (run small)) in
  let t_large = best_of_5 (fun () -> ignore (run large)) in
  if t_large > 30.0 *. t_small then
    Alcotest.failf "%s: 20k took %.1f ms, %.0fx the 2k (%.2f ms)" what (t_large *. 1000.0)
      (t_large /. t_small) (t_small *. 1000.0)

(* [Gen.pipeline] at [n] components: cores of nine stages and a register. *)
let pipeline n = Asim_fuzz.Gen.pipeline ~cores:(n / 10) ~depth:9 ~seed:1 ()
