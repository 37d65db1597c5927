hastype z nat.
forall x1:tm. hastype x1 nat => hastype (s x1) nat.
hastype vnil (vec z).
forall x1:tm. hastype x1 nat => (forall x2:tm. hastype x2 tp => (forall x3:tm. hastype x3 (vec x1) => hastype (vcons x1 x2 x3) (vec (s x1)))).
forall x1:tm. hastype x1 nat => (forall x2:tm -> tm. (forall x3:tm. hastype x3 nat => hastype (x2 x3) nat) => (forall x4:tm -> tm -> tm. (forall x5:tm. hastype x5 nat => (forall x6:tm. hastype x6 (vec x5) => hastype (x4 x5 x6) (vec (x2 x5)))) => (forall x7:tm. hastype x7 (vec x1) => hastype (vmap x1 x2 x4 x7) (vec (x2 x1))))).
forall x1:tm -> tm. (forall x2:tm. hastype x2 nat => hastype (x1 x2) nat) => (forall x3:(tm -> tm) -> tm. (forall x4:tm -> tm. (forall x5:tm. hastype x5 nat => hastype (x4 x5) (vec (x1 x5))) => hastype (x3 x4) tp) => hastype (vfold x1 x3) tp).
