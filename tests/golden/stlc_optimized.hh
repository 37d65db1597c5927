hastype base tp.
forall x1:tm. hastype x1 tp => (forall x2:tm. hastype x2 tp => hastype (arr x1 x2) tp).
forall x1:tm. hastype x1 tm => (forall x2:tm. hastype x2 tm => hastype (app x1 x2) tm).
forall x1:tm. hastype x1 tp => (forall x2:tm -> tm. (forall x3:tm. hastype x3 tm => hastype (x2 x3) tm) => hastype (lam x1 x2) tm).
forall x1:tm. top => (forall x2:tm. top => (forall x3:tm. hastype x3 tp => (forall x4:tm. top => (forall x5:tm. hastype x5 (of x1 (arr x3 x4)) => (forall x6:tm. hastype x6 (of x2 x3) => hastype (ofApp x1 x2 x3 x4 x5 x6) (of (app x1 x2) x4)))))).
forall x1:tm. top => (forall x2:tm. top => (forall x3:tm -> tm. top => (forall x4:tm -> tm -> tm. (forall x5:tm. hastype x5 tm => (forall x6:tm. hastype x6 (of x5 x1) => hastype (x4 x5 x6) (of (x3 x5) x2))) => hastype (ofLam x1 x2 x3 x4) (of (lam x1 (\x5. x3 x5)) (arr x1 x2))))).
