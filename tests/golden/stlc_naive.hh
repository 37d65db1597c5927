hastype base tp.
forall x1:tm. hastype x1 tp => (forall x2:tm. hastype x2 tp => hastype (arr x1 x2) tp).
forall x1:tm. hastype x1 tm => (forall x2:tm. hastype x2 tm => hastype (app x1 x2) tm).
forall x1:tm. hastype x1 tp => (forall x2:tm -> tm. (forall x3:tm. hastype x3 tm => hastype (x2 x3) tm) => hastype (lam x1 x2) tm).
forall x1:tm. hastype x1 tm => (forall x2:tm. hastype x2 tm => (forall x3:tm. hastype x3 tp => (forall x4:tm. hastype x4 tp => (forall x5:tm. hastype x5 (of x1 (arr x3 x4)) => (forall x6:tm. hastype x6 (of x2 x3) => hastype (ofApp x1 x2 x3 x4 x5 x6) (of (app x1 x2) x4)))))).
forall x1:tm. hastype x1 tp => (forall x2:tm. hastype x2 tp => (forall x3:tm -> tm. (forall x4:tm. hastype x4 tm => hastype (x3 x4) tm) => (forall x5:tm -> tm -> tm. (forall x6:tm. hastype x6 tm => (forall x7:tm. hastype x7 (of x6 x1) => hastype (x5 x6 x7) (of (x3 x6) x2))) => hastype (ofLam x1 x2 x3 x5) (of (lam x1 (\x5. x3 x5)) (arr x1 x2))))).
